package main

import (
	"bytes"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

// repoRoot is the checkout root, seen from this directory.
const repoRoot = "../.."

func TestQuantileRefusesP90OnFewerThan100Samples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := quantile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	xs = append(xs, 100)
	got, err := quantile(xs, 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if got, err := quantile(xs, 0.5); err != nil || got != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
}

// corruptingHandler flips one byte of every response body.
type corruptingHandler struct{ next http.Handler }

func (h corruptingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2] ^= 1
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestCorruptedResponseCountsAsFailedOp is the negative control for the
// per-op output check: a service whose bodies differ from the reference by
// one bit fails every op, and the first diff is written out.
func TestCorruptedResponseCountsAsFailedOp(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the vet-serve workload")
	}
	sess, err := setupVetServe(&runEnv{root: repoRoot, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := sess.(*vetServe)
	defer vs.close()
	good := vs.srv
	if vs.srv, err = startServer(corruptingHandler{arrayflow.NewServiceHandler(nil)}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		vs.srv.close()
		vs.srv = good
	}()
	fails := &failures{path: filepath.Join(t.TempDir(), "first-failure.txt")}
	lr := closedLoop(1, 300*time.Millisecond, fails, vs.op)
	if lr.failed == 0 || lr.failed != len(lr.latMS) {
		t.Errorf("corrupted responses: %d attempted, %d failed; want all failed", len(lr.latMS), lr.failed)
	}
	diff, err := os.ReadFile(fails.path)
	if err != nil || !bytes.Contains(diff, []byte("differs from the reference")) {
		t.Errorf("first failure not written out: %v\n%s", err, diff)
	}
}

// TestCorruptedGoldenFailsSetup is the negative control for the set-up
// oracle: one changed byte in one golden fails it, the intact copy passes.
func TestCorruptedGoldenFailsSetup(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"examples", filepath.Join("internal", "lint", "testdata")} {
		copyDir(t, filepath.Join(repoRoot, dir), filepath.Join(root, dir))
	}
	if err := setupOracles(root); err != nil {
		t.Fatalf("intact goldens fail the oracle: %v", err)
	}
	golden := filepath.Join(root, "internal", "lint", "testdata", "fig1.sarif.golden")
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Replace(b, []byte("provably racy"), []byte("provably racY"), 1)
	if err := os.WriteFile(golden, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = setupOracles(root)
	if err == nil || !strings.Contains(err.Error(), "fig1.sarif.golden") {
		t.Errorf("corrupted golden: set-up error %v, want one naming fig1.sarif.golden", err)
	}
}

// TestDamagedDiskCacheFailsRestartOp is the negative control for the
// analyze-restart disk check: damaged cache entries fall back to cold solves
// whose reports still match the references, and the op must fail anyway.
func TestDamagedDiskCacheFailsRestartOp(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the analyze-restart workload")
	}
	sess, err := setupAnalyzeRestart(&runEnv{root: repoRoot, dir: t.TempDir(), seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := sess.(*analyzeRestart)
	defer a.close()
	if _, err := a.op(0, 0); err != nil {
		t.Fatalf("intact cache: %v", err)
	}
	damaged := 0
	err = filepath.WalkDir(a.cacheDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		damaged++
		return os.WriteFile(path, []byte("damaged"), 0o644)
	})
	if err != nil || damaged == 0 {
		t.Fatalf("damaging %d cache entries: %v", damaged, err)
	}
	if _, err := a.op(0, 1); err == nil || !strings.Contains(err.Error(), "disk") {
		t.Errorf("damaged cache: op error %v, want a disk-cache failure", err)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
