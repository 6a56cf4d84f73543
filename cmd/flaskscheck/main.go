// Command flaskscheck runs the repo's invariant analyzers — the rules
// the compiler can't see but mixed-version clusters and the
// single-threaded event loop depend on. CI and `make lint` run it over
// the whole module; it exits non-zero if any invariant is violated.
//
// Usage:
//
//	flaskscheck [-checks noblock,ctxsend,...] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Analyzers:
//
//	noblock     the core event loop never sleeps, does I/O, or blocks
//	            on a channel send
//	ctxsend     protocol Sends thread the caller ctx and handle the
//	            error (//flasks:fire-and-forget waives)
//	lockhold    no fsync, send, or blocking I/O while a mutex is held
//	            (//flasks:lockhold-ok waives)
//
// Deliberate violations are annotated in source; see the Invariants
// section of docs/ARCHITECTURE.md for each rule's escape hatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dataflasks/internal/analysis"
	"dataflasks/internal/analysis/passes/ctxsend"
	"dataflasks/internal/analysis/passes/lockhold"
	"dataflasks/internal/analysis/passes/noblock"
)

// All is the full analyzer suite, in reporting order.
var All = []*analysis.Analyzer{
	noblock.Analyzer,
	ctxsend.Analyzer,
	lockhold.Analyzer,
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer subset (default: all)")
	flag.Parse()

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskscheck: %v\n", err)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskscheck: %v\n", err)
		os.Exit(2)
	}
	prog, err := analysis.LoadPackages(cwd, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskscheck: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskscheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flaskscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return All, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(All))
	names := make([]string, len(All))
	for i, a := range All {
		byName[a.Name] = a
		names[i] = a.Name
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
