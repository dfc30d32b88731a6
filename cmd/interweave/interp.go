package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/interp"
	"repro/internal/workloads"
)

// runInterp is the `interweave interp` subcommand: execute the CARAT
// kernel suite on the compiled interpreter engine and report what the
// superinstruction fuser did with it, one line per kernel (checksum,
// steps, cycles, fused pair count). Returns 1 on execution errors, 0
// otherwise.
func runInterp(argv []string) int {
	fs := flag.NewFlagSet("interp", flag.ExitOnError)
	nofuse := fs.Bool("nofuse", false, "disable superinstruction fusion")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: interweave interp [-nofuse]

Runs the CARAT kernel suite on the compiled interpreter and prints one
summary line per kernel: checksum, executed steps, cycles, and the
number of superinstruction pairs the fusion stage formed (-nofuse pins
fusion off).`)
	}
	_ = fs.Parse(argv)

	for _, k := range workloads.CARATSuite() {
		m := k.Build()
		ip, err := interp.New(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "interp: %s: %v\n", k.Name, err)
			return 1
		}
		ip.NoFusion = *nofuse
		ret, err := ip.Call(k.Entry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "interp: %s: %v\n", k.Name, err)
			return 1
		}
		fmt.Printf("%-14s ret=%-14d steps=%-8d cycles=%-8d fused-pairs=%d\n",
			k.Name, ret, ip.Stats.Steps, ip.Stats.Cycles, ip.Program().FusedPairs())
	}
	return 0
}
