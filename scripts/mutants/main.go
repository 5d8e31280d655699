// Command mutants is the committed mutation gate. It copies the module to a
// temporary directory and, for each row of table (table.go), applies the
// row's mutant there, runs only the row's test with plain go test
// -count=1, and restores the file. The run fails when a mutant survives its
// test, when a snippet does not match its file exactly once, when a mutant
// does not build, and when a row's test fails or does not run on the
// unmutated copy.
//
// Run it from the module root:
//
//	go run ./scripts/mutants
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// mutant is one row of the table: in file (relative to the module root),
// the snippet old, which must occur exactly once, becomes new, and the test
// test of package pkg must then fail. test names a top-level test, or a
// subtest as Test/sub.
type mutant struct {
	claim, file, old, new, pkg, test string
}

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "mutants: run from the module root:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	if err := copyTree(".", tmp); err != nil {
		fmt.Fprintln(os.Stderr, "mutants: copying the module:", err)
		return 2
	}
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Printf("FAIL "+format+"\n", args...)
	}
	// Every snippet must match before anything runs, and every test must
	// pass without its mutant, or a kill would prove nothing.
	for _, m := range table {
		if _, err := m.mutated(tmp); err != nil {
			fail("%s: %v", m.file, err)
		}
	}
	baseline := map[string]bool{}
	for _, m := range table {
		key := m.pkg + " " + m.test
		if baseline[key] || failed > 0 {
			continue
		}
		baseline[key] = true
		if out, err := goTest(tmp, m); err != nil || !bytes.Contains(out, []byte("--- PASS: "+m.test)) {
			fail("%s %s does not pass without a mutant (%v):\n%s", m.pkg, m.test, err, out)
		}
	}
	if failed > 0 {
		return 1
	}
	for i, m := range table {
		t0 := time.Now()
		restore, err := m.apply(tmp)
		if err != nil {
			fail("%s: %v", m.file, err)
			continue
		}
		out, err := goTest(tmp, m)
		if rerr := restore(); rerr != nil {
			fmt.Fprintln(os.Stderr, "mutants: restoring", m.file+":", rerr)
			return 2
		}
		switch {
		case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
			fail("row %d (%s): the mutant does not build:\n%s", i+1, m.file, out)
		case err == nil:
			fail("row %d: %s survived the mutant of %s (claim: %s)", i+1, m.test, m.file, m.claim)
		case !bytes.Contains(out, []byte("--- FAIL: "+m.test)):
			fail("row %d (%s): go test failed without failing %s:\n%s", i+1, m.file, m.test, out)
		default:
			fmt.Printf("killed row %d in %4.1fs: %s fails without %q\n", i+1, time.Since(t0).Seconds(), m.test, m.claim)
		}
	}
	fmt.Printf("mutants: %d rows, %d failed, %.0fs\n", len(table), failed, time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

// mutated returns m's file in the module at root with the mutant applied.
func (m mutant) mutated(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
	if err != nil {
		return nil, err
	}
	return replaceOnce(src, m.old, m.new)
}

// apply writes the mutant into the copy of the module at root and returns
// the function that restores the file.
func (m mutant) apply(root string) (restore func() error, err error) {
	path := filepath.Join(root, filepath.FromSlash(m.file))
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mutated, err := replaceOnce(src, m.old, m.new)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		return nil, err
	}
	return func() error { return os.WriteFile(path, src, 0o644) }, nil
}

// replaceOnce replaces old in src by new, and fails unless old occurs
// exactly once.
func replaceOnce(src []byte, old, new string) ([]byte, error) {
	if old == "" {
		return nil, errors.New("empty snippet")
	}
	if n := bytes.Count(src, []byte(old)); n != 1 {
		return nil, fmt.Errorf("snippet %q matches %d times, want exactly 1", old, n)
	}
	return bytes.Replace(src, []byte(old), []byte(new), 1), nil
}

// runPattern anchors each element of a test name for go test -run.
func runPattern(test string) string {
	parts := strings.Split(test, "/")
	for i, p := range parts {
		parts[i] = "^" + p + "$"
	}
	return strings.Join(parts, "/")
}

// goTest runs m's test in the module at root, verbose so the result names
// the test.
func goTest(root string, m mutant) ([]byte, error) {
	cmd := exec.Command("go", "test", "-count=1", "-timeout=3m", "-v", "-run", runPattern(m.test), m.pkg)
	cmd.Dir = root
	return cmd.CombinedOutput()
}

// copyTree copies the regular files under src to dst, leaving out .git.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		target := filepath.Join(dst, path)
		switch {
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(target, 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
