// Command benchgen writes the synthetic ISCAS89-class benchmark circuits
// to .bench files, so they can be inspected or replaced by the genuine
// ISCAS89 netlists. (Planner timings come from the planbench module.)
//
// Usage:
//
//	benchgen [-out dir] [-circuit name]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lacret/internal/bench89"
	"lacret/internal/netlist"
)

func main() {
	var (
		out     = flag.String("out", ".", "output directory")
		circuit = flag.String("circuit", "", "single circuit name (default: all)")
	)
	flag.Parse()

	params := bench89.Catalog()
	if *circuit != "" {
		p, ok := bench89.ByName(*circuit)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgen: unknown circuit %q\n", *circuit)
			os.Exit(1)
		}
		params = []bench89.Params{p}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
	for _, p := range params {
		nl, err := bench89.Generate(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, p.Name+".bench")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		if err := netlist.WriteBench(f, nl); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		f.Close()
		s := nl.Stats()
		fmt.Printf("%s: %d gates, %d FFs, %d/%d I/O -> %s\n",
			p.Name, s.Gates, s.DFFs, s.Inputs, s.Outputs, path)
	}
}
