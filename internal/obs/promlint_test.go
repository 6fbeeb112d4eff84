package obs

import (
	"strings"
	"testing"
)

func lintString(t *testing.T, text string) []LintProblem {
	t.Helper()
	probs, err := LintPrometheusText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func problemTexts(probs []LintProblem) []string {
	out := make([]string, len(probs))
	for i, p := range probs {
		out[i] = p.String()
	}
	return out
}

func hasProblem(probs []LintProblem, substr string) bool {
	for _, p := range probs {
		if strings.Contains(p.String(), substr) {
			return true
		}
	}
	return false
}

func TestLintCleanRegistryOutput(t *testing.T) {
	// Everything the real registry serializes must lint clean.
	reg := NewRegistry()
	reg.Counter("gpustl_requests_total").Add(3)
	reg.Counter(`gpustl_overload_shed_total{pool="worker_slots",reason="queue_full"}`).Add(10)
	reg.Gauge(`gpustl_overload_queue_depth{pool="admission"}`).Set(2)
	h := reg.Histogram("gpustl_latency_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(2)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if probs := lintString(t, sb.String()); len(probs) != 0 {
		t.Errorf("registry output has lint problems:\n%s\ntext:\n%s",
			strings.Join(problemTexts(probs), "\n"), sb.String())
	}
}

func TestLintDetectsProblems(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of an expected problem
	}{
		{"bad metric name", "# TYPE bad-name counter\nbad-name 1\n", "invalid metric name"},
		{"no type declaration", "orphan_total 3\n", "without a preceding TYPE"},
		{"counter sans _total", "# TYPE hits counter\nhits 3\n", "does not end in _total"},
		{"gauge named _total", "# TYPE g_total gauge\ng_total 3\n", "non-counter (gauge) named with _total"},
		{"duplicate type", "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "duplicate TYPE"},
		{"unknown type", "# TYPE x widget\nx 1\n", "unknown metric type"},
		{"duplicate series", "# TYPE a_total counter\na_total{k=\"v\"} 1\na_total{k=\"v\"} 2\n", "duplicate series"},
		{"reserved label", "# TYPE a_total counter\na_total{__name__=\"x\"} 1\n", "reserved __ prefix"},
		{"bad value", "# TYPE a_total counter\na_total one\n", "unparseable value"},
		{"hist missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n", `without le="+Inf"`},
		{"hist missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\n", "without _count"},
		{"hist missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n", "without _sum"},
		{"hist inf != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n", "!= _count"},
		{"hist not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n", "not cumulative"},
		{"hist stray sample", "# TYPE h histogram\nh 2\n", "neither _bucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probs := lintString(t, tc.text)
			if !hasProblem(probs, tc.want) {
				t.Errorf("lint missed %q; got: %v", tc.want, problemTexts(probs))
			}
		})
	}
}

func TestLintPerLabelSetHistograms(t *testing.T) {
	// Histogram coherence is checked per label set: one shard's buckets
	// must not be mixed with another's.
	text := `# TYPE h histogram
h_bucket{shard="0",le="1"} 1
h_bucket{shard="0",le="+Inf"} 2
h_count{shard="0"} 2
h_sum{shard="0"} 1.5
h_bucket{shard="1",le="1"} 7
h_bucket{shard="1",le="+Inf"} 7
h_count{shard="1"} 7
h_sum{shard="1"} 3
`
	if probs := lintString(t, text); len(probs) != 0 {
		t.Errorf("coherent per-shard histograms flagged: %v", problemTexts(probs))
	}

	// Break only shard 1.
	broken := strings.Replace(text, `h_count{shard="1"} 7`, `h_count{shard="1"} 9`, 1)
	probs := lintString(t, broken)
	if !hasProblem(probs, `shard=1`) {
		t.Errorf("broken shard-1 histogram not attributed: %v", problemTexts(probs))
	}
	if hasProblem(probs, `shard=0`) {
		t.Errorf("healthy shard-0 histogram flagged: %v", problemTexts(probs))
	}
}
