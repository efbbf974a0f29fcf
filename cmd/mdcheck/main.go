// Command mdcheck is the repository's markdown link checker: it walks
// every *.md file (skipping .git and vendor-ish directories), extracts
// inline links and images, and fails — listing every offender — when a
// relative link points at a file that does not exist. External links
// (http, https, mailto) are out of scope: CI must not depend on the
// network, and the docs' local cross-references (README → ARCHITECTURE →
// DESIGN → EXPERIMENTS) are what rot silently.
//
// It also holds the four prose documents (ARCHITECTURE, DESIGN,
// EXPERIMENTS, README) to the code they describe: every backticked
// `pkg.Name[.Name…]` whose pkg is a directory under internal/ must have
// each Name still declared or used in that package's non-test Go files.
//
// Usage:
//
//	mdcheck [root]   # default root "."
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links/images: [text](target) / ![alt](target).
// Reference-style definitions ("[x]: target") are rare here and external.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	idents, err := packageIdents(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcheck:", err)
		os.Exit(2)
	}
	broken, stale := 0, 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "node_modules" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if isExternal(target) {
				continue
			}
			// Strip a #fragment; a bare "#section" link targets its own file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Printf("%s: broken link %q (resolved %s)\n", path, m[1], resolved)
				broken++
			}
		}
		if filepath.Dir(path) == filepath.Clean(root) && proseDocs[d.Name()] {
			for _, sym := range staleSymbols(string(b), idents) {
				fmt.Printf("%s: `%s` names a symbol its package no longer has\n", path, sym)
				stale++
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcheck:", err)
		os.Exit(2)
	}
	if broken > 0 || stale > 0 {
		fmt.Printf("mdcheck: %d broken link(s), %d stale symbol(s)\n", broken, stale)
		os.Exit(1)
	}
	fmt.Println("mdcheck: all markdown links resolve, every documented symbol exists")
}

// proseDocs are the root documents whose backticked symbols are checked.
var proseDocs = map[string]bool{"ARCHITECTURE.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "README.md": true}

var (
	// fenceRe matches a fenced code block; only inline code spans are read.
	fenceRe = regexp.MustCompile("(?ms)^```.*?^```")
	spanRe  = regexp.MustCompile("`([^`\n]+)`")
	// symbolRe matches pkg.Name[.Name…] not preceded by a path or an
	// identifier. The first Name is exported, which keeps file names
	// (monitor.go) and metric names (admission.queue_wait_ms_p50) out.
	symbolRe = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.\w+)*)`)
)

// staleSymbols returns each backticked pkg.Name[.Name…] in doc whose pkg has
// an entry in idents and one of whose Names is not among that package's
// identifiers.
func staleSymbols(doc string, idents map[string]map[string]bool) []string {
	var stale []string
	for _, span := range spanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(doc, ""), -1) {
		for _, m := range symbolRe.FindAllStringSubmatch(span[1], -1) {
			pkg, ok := idents[m[1]]
			if !ok {
				continue
			}
			for _, name := range strings.Split(m[2], ".") {
				if !pkg[name] {
					stale = append(stale, m[1]+"."+m[2])
					break
				}
			}
		}
	}
	return stale
}

// packageIdents maps each directory under dir to the identifiers its
// non-test Go files contain (comments and strings excluded).
func packageIdents(dir string) (map[string]map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	idents := map[string]map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		pkg := filepath.Base(filepath.Dir(f))
		if idents[pkg] == nil {
			idents[pkg] = map[string]bool{}
		}
		var s scanner.Scanner
		s.Init(token.NewFileSet().AddFile(f, -1, len(src)), src, nil, 0)
		for _, tok, lit := s.Scan(); tok != token.EOF; _, tok, lit = s.Scan() {
			if tok == token.IDENT {
				idents[pkg][lit] = true
			}
		}
	}
	return idents, nil
}

func isExternal(target string) bool {
	for _, p := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(target, p) {
			return true
		}
	}
	return false
}
