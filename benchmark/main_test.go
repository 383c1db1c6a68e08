package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the whole set runs in a second or
// two: the smoke test checks the harness's plumbing, not the numbers.
var tinySizes = sizes{
	dramRows: 192, dramCols: 32,
	gfRows: 96, gfCols: 16, gfWidth: 4,
	mixRows: 192, mixCols: 16, mixRowDelay: time.Microsecond,
	simSamples: 60, simFeatures: 8, simNodes: 24, simIters: 3,
	simTrainSteps: 30, simEpochs: 1,
}

// TestSmoke runs every workload untraced and traced on tiny shapes: all
// rounds verify, every end-to-end metric is non-zero on every workload,
// every per-layer metric is produced by at least one workload, and the
// driver's object survives a JSON round trip.
func TestSmoke(t *testing.T) {
	produced := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.05, reps: 1, minRounds: 3 * traceBlock, traced: traced, size: tinySizes}
			m, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			res := m.result(specs)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", name, traced, len(res.Metrics), len(specs))
			}
			for k := range m.values {
				produced[k] = true
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("%s traced=%v: measured %q is not declared", name, traced, k)
				}
			}
			if !traced {
				for _, s := range specs {
					if !(res.Metrics[s.Name].Value > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, res) {
				t.Errorf("%s traced=%v: JSON round trip changed the result (%v)", name, traced, err)
			}
		}
	}
	for _, s := range perLayer {
		if !produced[s.Name] {
			t.Errorf("per-layer %s is declared but no workload produces it", s.Name)
		}
	}
}

// TestCommandLine: arguments the harness cannot run exit non-zero.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"--trace", "2"}, &stdout, &stderr); code == 0 {
		t.Error("--trace 2 exited 0")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go in step
// and inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", decl.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n json %v\n   go %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n json %v\n   go %v", decl.PerLayer, perLayer)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(decl.Workloads); n < 2 || n > 8 || n != len(workloadNames) {
		t.Errorf("%d workloads", n)
	}
	for i, w := range decl.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness runs %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, s := range endToEnd {
		name(s.Name)
		if !(s.Bound > 0 && s.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	for _, s := range perLayer {
		name(s.Name)
		if s.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", s.Name)
		}
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", s.Name, s.Unit, s.Better)
		}
	}
	if endToEnd[0].Name != mSetup || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s (s, lower) must be declared")
	}
}
