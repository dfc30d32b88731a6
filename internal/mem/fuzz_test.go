package mem

import (
	"encoding/binary"
	"testing"
)

// FuzzBuddyVsReference drives the fast intrusive Buddy and the map-based
// ReferenceBuddy with the same operation trace decoded from the fuzz
// input, and requires them to be indistinguishable: identical addresses
// and errors from every Alloc, identical errors from every Free
// (including deliberately wild frees), identical SizeOf/LargestFree/
// LiveAllocs answers, identical stats counters, and clean invariants on
// both engines after every operation. A Reset operation (opReset)
// resets the fast engine in place and replaces the reference with a new
// one: from then on the reused engine must replay a fresh reference's
// sequence.
//
// Address-for-address equality is the strong claim: the fast engine's
// free lists must reproduce the reference's swap-with-last slice
// discipline exactly, because the paging experiment feeds buddy
// addresses into the TLB model and expects identical output.
func FuzzBuddyVsReference(f *testing.F) {
	// Any other opcode byte picks alloc, free or wild free by its value
	// mod 3. opReset is a byte no checked-in seed uses as an opcode, so
	// those seeds decode to the operations they were written for.
	const opReset = 0xfe

	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x10, 0x02, 0x00})
	// Alternating allocs and frees with varied sizes.
	f.Add([]byte{
		0x00, 0xff, 0x03, 0x00, 0x40, 0x01, 0x00,
		0x00, 0x05, 0x00, 0x00, 0x00, 0x02, 0x03,
		0x01, 0x00, 0x01, 0x01, 0x00, 0x02,
	})
	// Oversized and zero-byte requests.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Allocs from the low and the high metadata tier and a free, then a
	// Reset, wild frees of a low-tier (0x5000) and a high-tier (0xc000)
	// block that were live before it, and the same operations again.
	f.Add([]byte{
		0x03, 0x00, 0x10, 0x00, 0x40, 0x03, 0x00, 0x02, 0x03, 0x00, 0x80, 0x01, 0x00,
		opReset,
		0x02, 0x00, 0x50, 0x02, 0x00, 0xc0,
		0x03, 0x00, 0x10, 0x00, 0x40, 0x03, 0x00, 0x02, 0x03, 0x00, 0x80, 0x01, 0x00,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, err := NewBuddy(0x4000, 1<<18, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReferenceBuddy(0x4000, 1<<18, 5)
		if err != nil {
			t.Fatal(err)
		}
		var live []Addr

		step := func(opIdx int) {
			if fe, re := fast.CheckInvariants(), ref.CheckInvariants(); fe != nil || re != nil {
				t.Fatalf("op %d: invariants fast=%v reference=%v", opIdx, fe, re)
			}
			fs, rs := fast.Stats(), ref.Stats()
			if fs != rs {
				t.Fatalf("op %d: stats diverge\nfast      %+v\nreference %+v", opIdx, fs, rs)
			}
			if fast.LargestFree() != ref.LargestFree() {
				t.Fatalf("op %d: LargestFree %d != %d", opIdx, fast.LargestFree(), ref.LargestFree())
			}
			if fast.LiveAllocs() != ref.LiveAllocs() {
				t.Fatalf("op %d: LiveAllocs %d != %d", opIdx, fast.LiveAllocs(), ref.LiveAllocs())
			}
		}

		for op := 0; len(data) > 0; op++ {
			code := data[0]
			data = data[1:]
			if code == opReset {
				// Reset: the fast engine in place, the reference anew.
				fast.Reset()
				if ref, err = NewReferenceBuddy(0x4000, 1<<18, 5); err != nil {
					t.Fatal(err)
				}
				live = live[:0]
				step(op)
				continue
			}
			switch code % 3 {
			case 0: // alloc: next 1-6 bytes give the request size
				nb := 1 + int(code/3)%6
				if nb > len(data) {
					nb = len(data)
				}
				var buf [8]byte
				copy(buf[:], data[:nb])
				data = data[nb:]
				n := binary.LittleEndian.Uint64(buf[:])
				fa, fe := fast.Alloc(n)
				ra, re := ref.Alloc(n)
				if fe != re {
					t.Fatalf("op %d: Alloc(%d) err fast=%v reference=%v", op, n, fe, re)
				}
				if fe == nil {
					if fa != ra {
						t.Fatalf("op %d: Alloc(%d) addr fast=%#x reference=%#x", op, n, fa, ra)
					}
					fsz, fok := fast.SizeOf(fa)
					rsz, rok := ref.SizeOf(ra)
					if fok != rok || fsz != rsz {
						t.Fatalf("op %d: SizeOf(%#x) fast=(%d,%v) reference=(%d,%v)", op, fa, fsz, fok, rsz, rok)
					}
					live = append(live, fa)
				}
			case 1: // free a live block chosen by the next byte
				if len(live) == 0 || len(data) == 0 {
					continue
				}
				i := int(data[0]) % len(live)
				data = data[1:]
				a := live[i]
				fe := fast.Free(a)
				re := ref.Free(a)
				if fe != re {
					t.Fatalf("op %d: Free(%#x) err fast=%v reference=%v", op, a, fe, re)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // wild free: misaligned / out-of-range / double frees
				if len(data) < 2 {
					continue
				}
				a := Addr(binary.LittleEndian.Uint16(data[:2]))
				data = data[2:]
				fe := fast.Free(a)
				re := ref.Free(a)
				if fe != re {
					t.Fatalf("op %d: wild Free(%#x) err fast=%v reference=%v", op, a, fe, re)
				}
				if fe == nil {
					// A wild free that legitimately hit a live block:
					// drop it from the shadow set.
					for i, l := range live {
						if l == a {
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
							break
						}
					}
				}
			}
			step(op)
		}

		// Tear down through both engines and require full coalescing.
		for _, a := range live {
			fe := fast.Free(a)
			re := ref.Free(a)
			if fe != nil || re != nil {
				t.Fatalf("teardown Free(%#x): fast=%v reference=%v", a, fe, re)
			}
		}
		step(-1)
		if got := fast.LargestFree(); got != 1<<18 {
			t.Fatalf("after teardown largest free = %d, want full region", got)
		}
	})
}
