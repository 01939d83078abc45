// Command citestnames fails when a test filter in a CI workflow names
// nothing. `go test -run 'TestA|TestB'` passes silently when TestB was
// renamed or deleted, so a workflow can keep a line that no longer runs
// what it says. For every `go test` command in the given workflow files,
// each alternative of its -run, -bench and -fuzz patterns (and each
// fuzz-matrix target with its package) must match at least one test,
// benchmark or fuzz target that `go test -list` reports for the command's
// packages. The patterns that select nothing on purpose ('^$', NONE) are
// skipped.
//
// Usage, from the module root:
//
//	go run ./cmd/citestnames .github/workflows/ci.yml .github/workflows/nightly.yml
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

// filter is one pattern alternative and where it must resolve.
type filter struct {
	file, flag, alt string
	pkgs            []string
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: citestnames workflow.yml...")
		os.Exit(2)
	}
	var filters []filter
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		filters = append(filters, parse(path, string(data))...)
	}
	listed := map[string][]string{}
	bad, exact := 0, 0
	for _, f := range filters {
		key := strings.Join(f.pkgs, " ")
		if _, ok := listed[key]; !ok {
			listed[key] = list(f.pkgs)
		}
		re, err := regexp.Compile(f.alt)
		if err != nil {
			fmt.Printf("%s: %s alternative %q in %s is not a regexp: %v\n", f.file, f.flag, f.alt, key, err)
			bad++
			continue
		}
		kind := map[string]string{"-run": "", "-bench": "Benchmark", "-fuzz": "Fuzz"}[f.flag]
		matched := false
		for _, name := range listed[key] {
			if strings.HasPrefix(name, kind) && (kind != "" || !strings.HasPrefix(name, "Benchmark")) && re.MatchString(name) {
				matched = true
				if name == strings.Trim(f.alt, "^$") {
					exact++
					break
				}
			}
		}
		if !matched {
			fmt.Printf("%s: %s alternative %q matches nothing in %s\n", f.file, f.flag, f.alt, key)
			bad++
		}
	}
	fmt.Printf("%d filter alternatives, %d name a test exactly, %d as a pattern, %d match nothing\n",
		len(filters), exact, len(filters)-exact-bad, bad)
	if bad > 0 {
		os.Exit(1)
	}
}

// parse returns the filters of every `go test` command in a workflow, and
// of every fuzz-matrix entry (a `- target:` line and the `package:` line
// after it).
func parse(file, data string) []filter {
	var out []filter
	var toks []string
	lines := strings.Split(data, "\n")
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "#") {
			continue
		}
		if target, ok := strings.CutPrefix(t, "- target: "); ok && i+1 < len(lines) {
			if pkg, ok := strings.CutPrefix(strings.TrimSpace(lines[i+1]), "package: "); ok {
				out = append(out, filter{file: file, flag: "-fuzz", alt: "^" + target + "$", pkgs: []string{pkg}})
			}
		}
		toks = append(toks, tokens(strings.TrimSuffix(t, "\\"))...)
	}
	for i := 0; i+1 < len(toks); i++ {
		if toks[i] != "go" || toks[i+1] != "test" {
			continue
		}
		var flags [][2]string
		var pkgs []string
		j := i + 2
		for ; j < len(toks); j++ {
			t := toks[j]
			if t == "go" || t == ">" || t == "|" || t == "||" || t == "&&" || t == ";" {
				break
			}
			for _, fl := range []string{"-run", "-bench", "-fuzz"} {
				if v, ok := strings.CutPrefix(t, fl+"="); ok {
					flags = append(flags, [2]string{fl, v})
				} else if t == fl && j+1 < len(toks) {
					flags = append(flags, [2]string{fl, toks[j+1]})
					j++
				}
			}
			if strings.HasPrefix(t, "./") {
				pkgs = append(pkgs, t)
			}
		}
		for _, fl := range flags {
			for _, alt := range strings.Split(fl[1], "|") {
				if alt == "" || alt == "^$" || alt == "NONE" || alt == "." || strings.Contains(alt, "${{") {
					continue
				}
				out = append(out, filter{file: file, flag: fl[0], alt: alt, pkgs: pkgs})
			}
		}
		i = j - 1
	}
	return out
}

// tokens splits a shell line on spaces, keeping single-quoted strings
// whole and dropping their quotes.
func tokens(line string) []string {
	var out []string
	var cur strings.Builder
	quoted, open := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, open = !quoted, true
		case r == ' ' && !quoted:
			if open {
				out = append(out, cur.String())
			}
			cur.Reset()
			open = false
		default:
			cur.WriteRune(r)
			open = true
		}
	}
	if open {
		out = append(out, cur.String())
	}
	return out
}

// list returns the tests, benchmarks, fuzz targets and examples `go test
// -list` reports for pkgs.
func list(pkgs []string) []string {
	if len(pkgs) == 0 {
		return nil
	}
	cmd := exec.Command("go", append([]string{"test", "-list", "."}, pkgs...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "go test -list %s: %v\n", strings.Join(pkgs, " "), err)
		os.Exit(2)
	}
	var names []string
	sc := bufio.NewScanner(strings.NewReader(string(stdout)))
	for sc.Scan() {
		if name := sc.Text(); !strings.ContainsAny(name, " \t") && name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
