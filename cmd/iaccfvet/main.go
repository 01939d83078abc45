// iaccfvet is the multichecker for this repository's determinism analyzers
// (detiter, detsource — see internal/analysis/README.md).
//
// It runs in two modes:
//
//   - as a vet tool:  go vet -vettool=$(pwd)/bin/iaccfvet ./...
//     The go command drives it per package through the vet config protocol
//     (implemented in internal/analysis/unit), sharing the build cache so a
//     whole-tree run costs about as much as plain `go vet`.
//
//   - standalone:  iaccfvet [-detiter=false ...] [packages]
//     Loads the patterns (default ./...) itself via `go list -export` and
//     analyzes them in-process. Handy for one-off runs and editors.
//
// Individual analyzers are disabled with -<name>=false; all default on.
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iaccf/internal/analysis"
	"iaccf/internal/analysis/load"
	"iaccf/internal/analysis/suite"
	"iaccf/internal/analysis/unit"
)

func main() {
	analyzers := suite.Analyzers()
	// The vet protocol speaks in -V=full/-flags handshakes and a *.cfg
	// positional; any of those means the go command is driving.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" || arg == "-flags" || arg == "--flags" || strings.HasSuffix(arg, ".cfg") {
			unit.Main("iaccfvet", analyzers)
			return
		}
	}
	os.Exit(standalone(analyzers))
}

func standalone(analyzers []*analysis.Analyzer) int {
	fs := flag.NewFlagSet("iaccfvet", flag.ExitOnError)
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: iaccfvet [flags] [package patterns]")
		fmt.Fprintln(os.Stderr, "       go vet -vettool=/path/to/iaccfvet ./...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iaccfvet:", err)
		return 2
	}
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iaccfvet:", err)
		return 2
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, active)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iaccfvet:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
			found++
		}
	}
	if found > 0 {
		return 1
	}
	return 0
}
