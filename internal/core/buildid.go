package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

// BuildIdentity names the build of the running executable. Every table
// set the result cache stores is stamped with it, and a stamp that
// differs is a miss (see tablesPayload), so a persisted cache directory
// never serves tables another build computed. In order of preference:
//
//   - "vcs:<revision>" when the binary was built from a clean checkout,
//     so every command built from one commit shares entries;
//   - "buildid:<id>", the Go build ID from the executable's ELF note
//     (.note.go.buildid), which is content-addressed: builds from
//     different sources never share one;
//   - "sha256:<hash>" of the executable when it is not ELF;
//   - "process:<random>" when the executable cannot be read, so entries
//     are never shared across processes.
//
// The identity is deliberately not part of RunConfig.Key: a job ID and
// the event goldens stay the same across rebuilds, while the stamp
// still keeps stale entries out. It is computed once, on the result
// cache's first store or read (about 30 µs for the ELF note), never at
// start-up.
func BuildIdentity() string { return buildIdentity() }

var buildIdentity = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		clean := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				clean = s.Value == "false"
			}
		}
		if rev != "" && clean {
			return "vcs:" + rev
		}
	}
	exe, err := os.Executable()
	if err == nil {
		if id, err := elfBuildID(exe); err == nil {
			return "buildid:" + id
		}
		if sum, err := fileSHA256(exe); err == nil {
			return "sha256:" + sum
		}
	}
	var nonce [16]byte
	_, _ = rand.Read(nonce[:]) // never fails on supported platforms
	return "process:" + hex.EncodeToString(nonce[:])
})

// elfBuildID returns the Go build ID note of the ELF executable at
// path: name size 4, description size, type 4, the name "Go\x00\x00",
// then the ID. The linker places the note in the file's first 32 KB,
// where the go command itself looks for it. Scanning that prefix
// rather than parsing the file with debug/elf keeps debug/dwarf's
// package-level tables out of every binary's start-up and live heap.
func elfBuildID(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, 32<<10)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return "", err
	}
	buf = buf[:n]
	if n < 16 || string(buf[:4]) != "\x7fELF" {
		return "", errors.New("not an ELF file")
	}
	var order binary.ByteOrder = binary.LittleEndian
	if buf[5] == 2 { // EI_DATA: ELFDATA2MSB
		order = binary.BigEndian
	}
	name := []byte("Go\x00\x00")
	for off := 12; off < len(buf); off++ {
		i := bytes.Index(buf[off:], name)
		if i < 0 {
			break
		}
		off += i
		if order.Uint32(buf[off-12:]) != 4 || order.Uint32(buf[off-4:]) != 4 {
			continue
		}
		if size := int(order.Uint32(buf[off-8:])); size > 0 && off+4+size <= len(buf) {
			return string(buf[off+4 : off+4+size]), nil
		}
	}
	return "", errors.New("no Go build ID note in the first 32 KB")
}

// fileSHA256 hashes the file at path.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
