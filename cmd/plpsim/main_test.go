package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func metricsOutput(t *testing.T) []byte {
	t.Helper()
	prof, ok := trace.ProfileByName("gamess")
	if !ok {
		t.Fatal("gamess profile missing")
	}
	var buf bytes.Buffer
	writeMetrics(&buf, engine.Config{Instructions: 50_000}, prof)
	return buf.Bytes()
}

// The -metrics view must be byte-identical across invocations and
// match the committed golden file: schemes in Table IV order,
// components in reporting order, no map-range nondeterminism.
func TestWriteMetricsGolden(t *testing.T) {
	got := metricsOutput(t)
	if again := metricsOutput(t); !bytes.Equal(got, again) {
		t.Fatal("writeMetrics output differs between identical invocations")
	}
	golden := filepath.Join("testdata", "metrics_gamess_50k.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/plpsim -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("writeMetrics output differs from golden file %s\n"+
			"(if the timing model changed intentionally, refresh with -update)\ngot:\n%s",
			golden, got)
	}
}

// Scheme sections must appear in Table IV order.
func TestWriteMetricsSchemeOrder(t *testing.T) {
	out := string(metricsOutput(t))
	pos := -1
	for _, s := range engine.Schemes() {
		i := strings.Index(out, "\n"+string(s)+": ")
		if i < 0 {
			t.Fatalf("scheme %s missing from -metrics output", s)
		}
		if i < pos {
			t.Fatalf("scheme %s out of Table IV order", s)
		}
		pos = i
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	prof, _ := trace.ProfileByName("gamess")
	var buf bytes.Buffer
	writeMetricsJSON(&buf, engine.Config{Instructions: 50_000}, prof)
	var runs []registry.Run
	if err := json.Unmarshal(buf.Bytes(), &runs); err != nil {
		t.Fatalf("-metrics -json is not valid JSON: %v", err)
	}
	if len(runs) != len(engine.Schemes()) {
		t.Fatalf("got %d runs, want %d", len(runs), len(engine.Schemes()))
	}
	for i, s := range engine.Schemes() {
		if runs[i].Scheme != string(s) {
			t.Errorf("run %d scheme = %s, want %s (Table IV order)", i, runs[i].Scheme, s)
		}
	}
}

func TestWriteResultJSON(t *testing.T) {
	prof, _ := trace.ProfileByName("gamess")
	base := engine.Run(engine.Config{Scheme: engine.SchemeSecureWB, Instructions: 50_000}, prof)
	res := engine.Run(engine.Config{Scheme: engine.SchemeSP, Instructions: 50_000}, prof)
	var buf bytes.Buffer
	writeResultJSON(&buf, res, base, time.Second)
	var out struct {
		Run            registry.Run `json:"run"`
		BaselineCycles uint64       `json:"baselineCycles"`
		Normalized     float64      `json:"normalizedTime"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if out.Run.Scheme != "sp" || out.Run.Cycles != uint64(res.Cycles) {
		t.Fatalf("run = %s/%d cycles, want sp/%d", out.Run.Scheme, out.Run.Cycles, res.Cycles)
	}
	if out.BaselineCycles != uint64(base.Cycles) || out.Normalized <= 1 {
		t.Fatalf("baseline %d / normalized %.3f look wrong (sp should be slower than secure_WB)",
			out.BaselineCycles, out.Normalized)
	}
	var sum uint64
	for _, v := range out.Run.Attribution {
		sum += v
	}
	if sum != out.Run.Cycles {
		t.Fatalf("attribution in JSON sums to %d, cycles = %d", sum, out.Run.Cycles)
	}
}

// The usage text must name every registered scheme: the -scheme help
// is built from the registry, never from a hand-kept list.
func TestUsageListsEveryScheme(t *testing.T) {
	var buf bytes.Buffer
	flag.CommandLine.SetOutput(&buf)
	defer flag.CommandLine.SetOutput(nil)
	flag.CommandLine.PrintDefaults()
	usage := buf.String()
	if !strings.Contains(usage, "-scheme") {
		t.Fatalf("usage text has no -scheme flag:\n%s", usage)
	}
	for _, s := range engine.Schemes() {
		if !strings.Contains(usage, string(s)) {
			t.Errorf("usage text does not name scheme %s", s)
		}
	}
}
