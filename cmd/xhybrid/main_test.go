package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xhybrid"
)

// runCLI runs one command line in-process with stdout and stderr captured
// and the process exit stubbed. code is the exit code, or -1 when the
// command returned normally.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exitCode := stubExit(t)
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	func() {
		defer func() {
			os.Stdout, os.Stderr = oldOut, oldErr
			if r := recover(); r != nil && r != "osExit" {
				panic(r)
			}
		}()
		run(args)
	}()
	outF.Close()
	errF.Close()
	o, _ := os.ReadFile(outF.Name())
	e, _ := os.ReadFile(errF.Name())
	return string(o), string(e), *exitCode
}

// readReport decodes a verify -out file into v.
func readReport(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyReproducesSmallRecord pins verify's flag defaults against
// BENCH_flow.json's small recipe: every default the recipe leaves unset
// (seeds, q, strategy, fault seed) must match the ones that produced the
// record, or the digest, the plan or the detected-fault counts move.
func TestVerifyReproducesSmallRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flow.json")
	stdout, stderr, code := runCLI(t, "verify", "-cells", "1024", "-chains", "32", "-xclusters", "24",
		"-patterns", "128", "-m", "16", "-faults", "200", "-sweep", "1,2,4", "-out", out)
	if code != -1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasSuffix(stdout, "PASS: no observable capture was masked (fault coverage preserved)\n") {
		t.Fatalf("no PASS verdict:\n%s", stdout)
	}
	var reps []xhybrid.FlowReport
	readReport(t, out, &reps)
	if len(reps) != 3 {
		t.Fatalf("sweep wrote %d reports, want 3", len(reps))
	}
	for i, rep := range reps {
		if w := []int{1, 2, 4}[i]; rep.Spec.Workers != w {
			t.Errorf("report %d ran %d workers, want %d", i, rep.Spec.Workers, w)
		}
		if rep.XMapDigest != "5285337962b6b867da5cad0bf9aaecf6c9f48a30397ac4a7543eb1430be48ebe" {
			t.Errorf("workers=%d digest %s", rep.Spec.Workers, rep.XMapDigest)
		}
		if rep.TotalBits != 36034 || rep.Partitions != 2 || rep.Rounds != 2 || !rep.Preserved {
			t.Errorf("workers=%d plan %d bits, %d partitions, %d rounds, preserved=%t; want 36034, 2, 2, true",
				rep.Spec.Workers, rep.TotalBits, rep.Partitions, rep.Rounds, rep.Preserved)
		}
		if c := rep.Coverage; c == nil || c.Faults != 200 || c.BaselineDetected != 144 || c.HybridDetected != 144 {
			t.Errorf("workers=%d coverage %+v, want 144 of 200 detected on both sides", rep.Spec.Workers, c)
		}
	}
}

// TestVerifyDefaultsReproduceMidRecord: verify with no flags but -faults
// is BENCH_flow.json's mid recipe.
func TestVerifyDefaultsReproduceMidRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flow.json")
	if _, stderr, code := runCLI(t, "verify", "-faults", "100", "-out", out); code != -1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep xhybrid.FlowReport
	readReport(t, out, &rep)
	if rep.XMapDigest != "3e419a488eac0fa672b8a8f57739953d148b141f48b2b63bc837778da98e1796" ||
		rep.TotalBits != 215033 || !rep.Preserved {
		t.Fatalf("digest %s, %d bits, preserved=%t; want the mid record", rep.XMapDigest, rep.TotalBits, rep.Preserved)
	}
	if c := rep.Coverage; c == nil || c.Faults != 100 || c.BaselineDetected != 76 || c.HybridDetected != 76 {
		t.Fatalf("coverage %+v, want 76 of 100 detected on both sides", c)
	}
}

// TestVerifyQReachesSpec locks the -q fix: the flags reach the flow spec
// as given, with no silent clamp of m or q.
func TestVerifyQReachesSpec(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flow.json")
	stdout, stderr, code := runCLI(t, "verify", "-cells", "256", "-chains", "16", "-xclusters", "8",
		"-patterns", "64", "-m", "16", "-q", "5", "-out", out)
	if code != -1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep xhybrid.FlowReport
	readReport(t, out, &rep)
	if rep.Spec.MISRSize != 16 || rep.Spec.Q != 5 {
		t.Fatalf("spec ran m=%d q=%d, want m=16 q=5", rep.Spec.MISRSize, rep.Spec.Q)
	}
	if !strings.Contains(stdout, "m=16 q=5") {
		t.Fatalf("summary does not show m=16 q=5:\n%s", stdout)
	}
}

// TestVerifyRejectsNegativeClusters: a negative -xclusters exits 1 with the
// flow spec's validation message instead of crashing in the generator.
func TestVerifyRejectsNegativeClusters(t *testing.T) {
	_, stderr, code := runCLI(t, "verify", "-cells", "64", "-chains", "8", "-m", "8", "-xclusters", "-1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "xhybrid: flow: negative X cluster count -1\n"; stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
}

// TestVerifyRejectsWideMISR: an -m wider than -chains exits 1 with the
// flow spec's validation message before any stage runs.
func TestVerifyRejectsWideMISR(t *testing.T) {
	stdout, stderr, code := runCLI(t, "verify", "-chains", "16", "-m", "32", "-stats")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "xhybrid: flow: 32-bit MISR wider than 16 chains; pick m <= chains\n"; stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
	// The -stats breakdown printed on exit shows no stage span.
	if strings.Contains(stdout, "circuit:") || strings.Contains(stdout, "flow.") {
		t.Fatalf("a stage ran before validation:\n%s", stdout)
	}
}

// TestErrorLinesCarryOnePrefix: a fatal error prints one line that starts
// with exactly one "xhybrid: ", whether the error comes from the facade
// (which prefixes its own) or from the operating system.
func TestErrorLinesCarryOnePrefix(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := [][]string{
		{"partition", "-workload", "ckt-b4", "-strategy", "nope"},
		{"partition", "-workload", "nope"},
		{"analyze", "-in", missing},
	}
	for _, args := range cases {
		_, stderr, code := runCLI(t, args...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1", args, code)
		}
		if !strings.HasPrefix(stderr, "xhybrid: ") || strings.Count(stderr, "xhybrid: ") != 1 ||
			strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line with one xhybrid: prefix", args, stderr)
		}
	}
}
