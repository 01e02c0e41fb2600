// Command omflp-lint runs the repository's custom static analyzers — the
// determinism and tolerance invariants and the field coverage of state
// codecs, described in internal/analysis — over a set of packages.
//
// Standalone (the usual way; CI gates on this):
//
//	go run ./cmd/omflp-lint ./...
//
// As a vet tool (unit-at-a-time, sharing go vet's caching and test
// packages excluded from determinism findings):
//
//	go build -o /tmp/omflp-lint ./cmd/omflp-lint
//	go vet -vettool=/tmp/omflp-lint ./...
//
// Exit status is 0 on a clean tree and nonzero when any analyzer reports a
// finding. Findings are suppressed line-by-line with the omflp: annotations
// (orderinvariant, floatexact, wallclock, nostate); see CONTRIBUTING.md for
// the contract each annotation asserts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

const version = "0.1.0"

func main() {
	// The go vet driver probes its tool with -V=full (version for the build
	// cache key) and -flags (registered flags), then invokes it once per
	// package with a *.cfg file. Divert those invocations before normal
	// flag parsing.
	if len(os.Args) >= 2 {
		switch {
		case strings.HasPrefix(os.Args[1], "-V"):
			fmt.Printf("omflp-lint version %s\n", version)
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(vetUnit(os.Args[1]))
		}
	}

	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: omflp-lint [-analyzers a,b] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			suppress := "not suppressable"
			if m := a.Marker(); m != "" {
				suppress = "suppress with //" + m
			}
			fmt.Printf("%-12s %s (%s)\n", a.Name, a.Doc, suppress)
		}
		return
	}
	if *only != "" {
		var sel []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			found := false
			for _, a := range analyzers {
				if a.Name == strings.TrimSpace(name) {
					sel = append(sel, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "omflp-lint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "omflp-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "omflp-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "omflp-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
