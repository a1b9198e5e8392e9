package parser

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"factorlog/internal/ast"
)

// FuzzParseProgram feeds arbitrary source text to the parser. No input may
// panic, and every source that parses must print back to text that parses
// to an equal unit: the same rules, facts and queries in the same order.
// The seed corpus is every .dl file under testdata/ and testdata/corpus/;
// run it with
//
//	go test -run=NONE -fuzz=FuzzParseProgram -fuzztime=15s ./internal/parser/
func FuzzParseProgram(f *testing.F) {
	for _, pattern := range []string{"../../testdata/*.dl", "../../testdata/corpus/*.dl"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := ParseProgram(src); err == nil {
			back, err := ParseProgram(p.String())
			if err != nil {
				t.Fatalf("printed program does not parse: %v\n%s", err, p)
			}
			if !slices.EqualFunc(p.Rules, back.Rules, ast.Rule.Equal) {
				t.Fatalf("program round trip changed it:\n%s\nbecame\n%s", p, back)
			}
		}
		u, err := Parse(src)
		if err != nil {
			return
		}
		text := printUnit(u)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("printed unit does not parse: %v\n%s", err, text)
		}
		if !slices.EqualFunc(u.Rules, back.Rules, ast.Rule.Equal) ||
			!slices.EqualFunc(u.Facts, back.Facts, ast.Atom.Equal) ||
			!slices.EqualFunc(u.Queries, back.Queries, ast.Atom.Equal) {
			t.Fatalf("unit round trip changed it:\n%s\nbecame\n%s", text, printUnit(back))
		}
	})
}

// printUnit renders a unit as source text: rules, then facts, then queries.
func printUnit(u *Unit) string {
	var b strings.Builder
	for _, r := range u.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, f := range u.Facts {
		b.WriteString(ast.Fact(f).String())
		b.WriteByte('\n')
	}
	for _, q := range u.Queries {
		b.WriteString("?- " + q.String() + ".\n")
	}
	return b.String()
}
