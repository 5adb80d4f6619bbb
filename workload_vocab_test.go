package xhybrid_test

import (
	"bytes"
	"strings"
	"testing"

	"xhybrid"
	"xhybrid/internal/workload"
	"xhybrid/internal/xmap"
)

// TestWorkloadVocabulary is the drift lock for workload names: every
// spelling any command accepts resolves through workload.ByName, and the
// facade's Workload accepts the same names. The facade rows use a scale
// suffix so the table generates small maps only.
func TestWorkloadVocabulary(t *testing.T) {
	profiles := map[string]workload.Profile{
		"ckt-a": workload.CKTA(), "ckta": workload.CKTA(), "a": workload.CKTA(), "CKT-A": workload.CKTA(),
		"ckt-b": workload.CKTB(), "cktb": workload.CKTB(), "b": workload.CKTB(), "Ckt-B": workload.CKTB(),
		"ckt-c": workload.CKTC(), "cktc": workload.CKTC(), "c": workload.CKTC(), "C": workload.CKTC(),
	}
	for name, want := range profiles {
		got, err := workload.ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		} else if got != want {
			t.Errorf("ByName(%q) = %s, want %s", name, got.Name, want.Name)
		}

		scaled := name + "40"
		want = workload.Scaled(want, 40)
		if got, err := workload.ByName(scaled); err != nil || got != want {
			t.Errorf("ByName(%q) = %+v, %v; want %s", scaled, got, err, want.Name)
		}
		x, err := xhybrid.Workload(scaled, 0)
		if err != nil {
			t.Errorf("Workload(%q): %v", scaled, err)
			continue
		}
		if x.Chains() != want.Chains || x.ChainLen() != want.ChainLen || x.Patterns() != want.Patterns {
			t.Errorf("Workload(%q) is %dx%d with %d patterns, want %dx%d with %d",
				scaled, x.Chains(), x.ChainLen(), x.Patterns(), want.Chains, want.ChainLen, want.Patterns)
		}
	}
}

// TestWorkloadUnknownNames: a name outside the vocabulary fails on every
// surface with the error that lists the accepted names.
func TestWorkloadUnknownNames(t *testing.T) {
	for _, name := range []string{"ckt-d", "ckt-b0", "ckt-bx", "", "4"} {
		_, err := workload.ByName(name)
		_, ferr := xhybrid.Workload(name, 0)
		for _, e := range []error{err, ferr} {
			if e == nil {
				t.Errorf("%q accepted", name)
			} else if !strings.Contains(e.Error(), "ckt-a, ckt-b or ckt-c") || !strings.Contains(e.Error(), "ckt-b4") {
				t.Errorf("%q: error %q does not list the accepted names", name, e)
			}
		}
	}
}

// TestScaledWorkloadName: ckt-b4 names the same X-map the benchmarks build
// with workload.Scaled(workload.CKTB(), 4).
func TestScaledWorkloadName(t *testing.T) {
	x, err := xhybrid.Workload("ckt-b4", 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := x.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if err := xmap.WriteBinary(&want, m, prof.Chains, prof.ChainLen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Workload(\"ckt-b4\") differs from Scaled(CKTB(), 4)")
	}
}
