package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in well under a second of work.
func tinyScale() scale {
	return scale{
		nodes:            3000,
		templates:        64,
		hot:              4,
		setups:           2,
		reachSources:     8,
		reachTargets:     8,
		reachProbe:       20 * time.Millisecond,
		unanchoredProbe:  50 * time.Millisecond,
		writeProbe:       16,
		writeWarmup:      4,
		accuracyProbe:    16,
		clients:          2,
		batchOps:         4,
		compactThreshold: 32,
	}
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     1,
		window:   500 * time.Millisecond,
		trace:    trace,
		sc:       tinyScale(),
		dir:      t.TempDir(),
		corrupt:  corrupt,
	}
	var out bytes.Buffer
	if _, err := execute(context.Background(), cfg, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny scale, untraced
// and traced, and checks that every named metric is reported with its
// unit and that every answer passed its check.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			names := e2eNames
			if trace {
				names = layerNames
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := res.Metrics[n.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w, trace, n.name)
				case m.Unit != n.unit:
					t.Errorf("%s trace=%t: metric %s unit %q, want %q", w, trace, n.name, m.Unit, n.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedAnswerFails shows the checks are not vacuous: each
// workload falsifies one answer and must then report itself incorrect.
func TestCorruptedAnswerFails(t *testing.T) {
	for w := range workloads {
		if res := tinyRun(t, w, false, true); res.Correct {
			t.Errorf("%s: a corrupted answer passed the checks", w)
		}
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the program", w.Name)
		}
	}
	for _, c := range []struct {
		what  string
		spec  []entry
		names []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, e2eNames}, {"per_layer", spec.PerLayer, layerNames}} {
		if len(c.spec) != len(c.names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.spec), len(c.names))
			continue
		}
		for i, n := range c.names {
			if c.spec[i].Name != n.name || c.spec[i].Unit != n.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.what, i, c.spec[i].Name, c.spec[i].Unit, n.name, n.unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "serve-hot", "-seconds", "0"},
		{"-workload", "serve-hot", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%q) = 0, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}
