package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFigure23Output(t *testing.T) {
	var buf bytes.Buffer
	if err := runFigure23(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"M1 = X1 + O3 + O8 + O13",
		"M6 = O2 + X3 + X4",
		"rank 4, 2 X-free combinations",
		"M1 ^ M3 ^ M5",
		"M1 ^ M4",
		"M1^M3^M5 X-free: true; M1^M4 X-free: true",
		"12 bits",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 2/3 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigures456Output(t *testing.T) {
	var buf bytes.Buffer
	if err := runFigures456(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"28 X's in 7 cells",
		"cost 85 -> 60",
		"cost 60 -> 58",
		"23/28 X's masked",
		"masks 45 + canceling 13 = 58",
		"cost 47 -> 44",
		"cost 44 -> 51",
		"stop (cost would rise)",
		"masks 30 + canceling 14 = 44",
		"conventional X-masking: 120",
		"Partition 3: patterns [2 3 7 8], mask [SC4[3]]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("figures 4-6 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSection3Output(t *testing.T) {
	var buf bytes.Buffer
	if err := runSection3(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"X-capturing cells",
		"90% of X's are captured in",
		"Largest equal-count group",
		"share the exact same pattern set",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("section 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1Scaled(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CKT-A", "CKT-B", "CKT-C", "Impv/[12]", "Normalized test time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAblations(t *testing.T) {
	for _, name := range []string{"strategies", "rounding", "granularity", "shadow", "qsweep", "correlation", "superset", "encoding", "ordering", "aliasing", "compressedcost"} {
		var buf bytes.Buffer
		if err := runAblation(&buf, name, 10); err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("ablation %s produced no output", name)
		}
	}
	if err := runAblation(&bytes.Buffer{}, "nope", 10); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

// TestAblationAliasingRows pins the aliasing table's rows: for each q the
// golden run's halts and X-free signatures and the detected share of the
// 200 single-bit error trials.
func TestAblationAliasingRows(t *testing.T) {
	var buf bytes.Buffer
	if err := runAblation(&buf, "aliasing", 10); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && strings.HasSuffix(f[4], "%") {
			rows[f[0]] = f[1:4]
		}
	}
	for _, want := range [][]string{
		{"1", "5", "5", "68/200"},
		{"2", "6", "12", "76/200"},
		{"3", "6", "18", "87/200"},
		{"5", "7", "35", "118/200"},
	} {
		if got := rows[want[0]]; strings.Join(got, " ") != strings.Join(want[1:], " ") {
			t.Errorf("q=%s: halts, signatures, detected = %v, want %v\n%s", want[0], got, want[1:], buf.String())
		}
	}
}

func TestFig4MapMatchesPaper(t *testing.T) {
	m := fig4Map()
	if m.TotalX() != 28 || m.NumXCells() != 7 {
		t.Fatalf("fig4 map: %d X's in %d cells", m.TotalX(), m.NumXCells())
	}
}

func TestRunTable1Seeds(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1Seeds(&buf, 20, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "robustness") {
		t.Fatal("seeds sweep output wrong")
	}
}
