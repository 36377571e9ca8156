package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/wb"
)

// TestMain lets the test binary stand in for the load generator child,
// which run starts by re-executing its own executable with -loadgen.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-loadgen" {
		if err := loadgenMain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyFixture is an untrained h=8 model: enough to serve and check bytes,
// fast enough for a unit test.
func tinyFixture(t *testing.T) *fixture {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 4})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	rng := rand.New(rand.NewSource(1))
	vectors := tensor.New(v.Size(), 8)
	for i := range vectors.Data {
		vectors.Data[i] = rng.Float64() - 0.5
	}
	cfg := wb.DefaultConfig()
	cfg.Hidden = 8
	m := wb.NewJointWB("Joint-WB", wb.NewGloVeEncoder(vectors), v.Size(), cfg)
	data, err := wb.EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := decodeFixture(data)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func shortRun(t *testing.T, fx *fixture, corrupt bool) *result {
	t.Helper()
	w, _ := workloadByName("fresh-short")
	res, err := run(options{workload: w, seed: 3, seconds: 0.5, fx: fx, corrupt: corrupt}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunPassesOnCorrectFleet(t *testing.T) {
	res := shortRun(t, tinyFixture(t), false)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("clean run: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, name := range endToEnd {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

// TestRunFailsOnCorruptedBody is the oracle's negative test: one backend
// garbles one response body, and the run must report it and fail.
func TestRunFailsOnCorruptedBody(t *testing.T) {
	res := shortRun(t, tinyFixture(t), true)
	if res.Correct {
		t.Fatal("run with a corrupted body reported correct")
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want exactly the 1 corrupted response", res.Failed)
	}
}

func TestTailOf(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{{40, 75, 10}, {150, 90, 15}, {480, 95, 24}, {1000, 99, 10}, {9, 50, 4}} {
		d := make([]time.Duration, tc.n)
		for i := range d {
			d[i] = time.Duration(i)
		}
		p, _, beyond := tailOf(d)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("n=%d: p%g with %d beyond, want p%g with %d", tc.n, p, beyond, tc.p, tc.beyond)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric names and
// units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rep := newReport(io.Discard)
	fixedPhase(rep, workloads[0], nil, 0)
	units := map[string]string{"setup_s": "s", "throughput_rps": "req/s", "mem_peak_mb": "MB", "teacher_match_ratio": "ratio"}
	for n, m := range rep.values {
		units[n] = m.Unit
	}
	check := func(decl []struct{ Name, Unit string }, names []string) {
		if len(decl) != len(names) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark emits %d", len(decl), len(names))
		}
		for i, d := range decl {
			if i < len(names) && d.Name != names[i] {
				t.Errorf("metric %d: BENCHMARK.json %q, benchmark %q", i, d.Name, names[i])
			}
			if u, ok := units[d.Name]; ok && u != d.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, benchmark %q", d.Name, d.Unit, u)
			}
		}
	}
	check(doc.EndToEnd, endToEnd)
	check(doc.PerLayer, perLayer)
}
