package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryRowMatchesTheTree checks the table against the module without
// running a mutant: each snippet occurs exactly once in its file, and each
// row's package declares the row's test. An edit that moves code under a
// row fails here, in the plain test run, not first in the gate.
func TestEveryRowMatchesTheTree(t *testing.T) {
	root := filepath.Join("..", "..")
	for i, m := range table {
		if _, err := m.mutated(root); err != nil {
			t.Errorf("row %d, %s: %v", i+1, m.file, err)
		}
		top, _, _ := strings.Cut(m.test, "/")
		decl := regexp.MustCompile(`(?m)^func ` + top + `\(t \*testing\.T\)`)
		tests, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(m.pkg), "*_test.go"))
		found := false
		for _, f := range tests {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || decl.Match(b)
		}
		if !found {
			t.Errorf("row %d: package %s declares no %s", i+1, m.pkg, top)
		}
	}
}

func TestReplaceOnceNeedsExactlyOneMatch(t *testing.T) {
	for _, c := range []struct {
		src, old string
		ok       bool
	}{
		{"a b c", "b", true},
		{"a b c", "d", false},
		{"a b b", "b", false},
		{"a b c", "", false},
	} {
		got, err := replaceOnce([]byte(c.src), c.old, "X")
		if (err == nil) != c.ok {
			t.Errorf("replaceOnce(%q, %q): err %v, want ok %v", c.src, c.old, err, c.ok)
		}
		if c.ok && string(got) != strings.Replace(c.src, c.old, "X", 1) {
			t.Errorf("replaceOnce(%q, %q) = %q", c.src, c.old, got)
		}
	}
	if got := runPattern("TestSoakModes/fan-out"); got != "^TestSoakModes$/^fan-out$" {
		t.Errorf("runPattern = %q", got)
	}
}
