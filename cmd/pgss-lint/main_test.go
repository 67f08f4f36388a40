package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test working directory")
		}
		dir = parent
	}
}

func capture(t *testing.T, name string) (*os.File, func() string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), name)
	if err != nil {
		t.Fatal(err)
	}
	return f, func() string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return string(b)
	}
}

// TestRepoIsClean is the dogfooding gate: the full analyzer suite over the
// whole module must report nothing. Since the dataflow tier this covers
// more than the nine engine packages — lockorder and leaktrack also run
// over internal/artifact, internal/chaos and every cmd/ package (the
// flow scope), and exhaustive checks every registered enum switch
// module-wide. If this fails, either new code broke an invariant (fix it
// or add a justified //pgss:allow) or an analyzer grew a false positive
// (fix the analyzer).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	stdout, readOut := capture(t, "stdout")
	stderr, readErr := capture(t, "stderr")
	code := run([]string{"-C", repoRoot(t), "./..."}, stdout, stderr)
	if code != 0 {
		t.Errorf("pgss-lint ./... exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, readOut(), readErr())
	}
}

// TestListAnalyzers checks -list names every analyzer and the engine
// scope.
func TestListAnalyzers(t *testing.T) {
	stdout, readOut := capture(t, "stdout")
	stderr, _ := capture(t, "stderr")
	if code := run([]string{"-list"}, stdout, stderr); code != 0 {
		t.Fatalf("-list exited %d, want 0", code)
	}
	out := readOut()
	all := []string{
		"nodeterminism", "maporder", "errwrap", "ctxflow", "goroutines", "ioatomic", "lockorder", "leaktrack", "fpdeterminism",
		"exhaustive",
	}
	if len(all) != 10 {
		t.Fatalf("suite should list 10 analyzers, test names %d", len(all))
	}
	for _, name := range all {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "pgss/internal/core") {
		t.Errorf("-list output missing engine scope:\n%s", out)
	}
	if !strings.Contains(out, "flow scope") || !strings.Contains(out, "pgss/internal/artifact") {
		t.Errorf("-list output missing flow scope:\n%s", out)
	}
}

// TestUnknownAnalyzerIsOperationalError pins the exit-code contract:
// misuse is 2, not 1 (findings) or 0.
func TestUnknownAnalyzerIsOperationalError(t *testing.T) {
	stdout, _ := capture(t, "stdout")
	stderr, readErr := capture(t, "stderr")
	if code := run([]string{"-only", "nosuch"}, stdout, stderr); code != 2 {
		t.Errorf("-only nosuch exited %d, want 2\nstderr:\n%s", code, readErr())
	}
}
