package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsMatchSpec: every workload BENCHMARK.json names exists.
func TestWorkloadsMatchSpec(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, the harness has none", w.Name)
		}
	}
}

// TestSmoke runs short untraced and traced runs and checks that every
// metric BENCHMARK.json names is printed with its unit, that the result
// line is correct, and that the correctness checks ran.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stack for several seconds")
	}
	spec := loadSpec(t)
	cases := []struct {
		workload string
		trace    string
		seconds  string
		want     []struct{ Name, Unit string }
	}{
		{"join-storm", "0", "3", nil},
		{"churn", "1", "8", nil},
	}
	for _, m := range spec.EndToEnd {
		cases[0].want = append(cases[0].want, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		cases[1].want = append(cases[1].want, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"--workload", c.workload, "--seed", "1", "--seconds", c.seconds, "--trace", c.trace}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("result: correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(c.want) {
				t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(c.want))
			}
			for _, m := range c.want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing", m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
			}
			checks := ""
			for _, l := range lines {
				if strings.HasPrefix(l, "checks: ") {
					checks = l
				}
			}
			if checks == "" || strings.Contains(checks, " 0 flow keys audited") {
				t.Errorf("correctness checks did not run: %q", checks)
			}
			if c.workload == "join-storm" && strings.Contains(checks, "(checked 0)") {
				t.Errorf("no device was checked against a direct Assess: %q", checks)
			}
		})
	}
}
