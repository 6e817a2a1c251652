package main

import (
	"context"
	"math"
	"testing"
)

func goodMatchResponse(n int) *matchResponse {
	r := &matchResponse{CRC: "0badcafe"}
	for i := 0; i < n; i++ {
		s := float64(i) / float64(n)
		r.Results = append(r.Results, pairResult{Score: s, Match: s >= 0.5})
	}
	return r
}

func TestCheckMatchResponse(t *testing.T) {
	if err := checkMatchResponse(goodMatchResponse(32), 32, 0.5, "0badcafe"); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	corrupt := map[string]func(r *matchResponse){
		"score above threshold with match false": func(r *matchResponse) { r.Results[3] = pairResult{Score: 0.9, Match: false} },
		"score below threshold with match true":  func(r *matchResponse) { r.Results[3] = pairResult{Score: 0.1, Match: true} },
		"truncated result list":                  func(r *matchResponse) { r.Results = r.Results[:31] },
		"score above one":                        func(r *matchResponse) { r.Results[0] = pairResult{Score: 1.5, Match: true} },
		"per-pair error":                         func(r *matchResponse) { r.Results[0].Error = "boom" },
		"other model":                            func(r *matchResponse) { r.CRC = "00000000" },
	}
	for name, f := range corrupt {
		r := goodMatchResponse(32)
		f(r)
		if err := checkMatchResponse(r, 32, 0.5, "0badcafe"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func goodMatchAllResponse() *matchAllResponse {
	return &matchAllResponse{
		Properties: 6, Candidates: 5, Scored: 5,
		Matches: []matchAllMatch{
			{A: "s1/zoom", B: "s2/optical zoom", Score: 0.97},
			{A: "s1/price", B: "s2/cost", Score: 0.8},
			{A: "s1/price", B: "s3/cost", Score: 0.8},
		},
	}
}

func TestCheckMatchAllResponse(t *testing.T) {
	if err := checkMatchAllResponse(goodMatchAllResponse(), 6, 0.5); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	corrupt := map[string]func(r *matchAllResponse){
		"same-source pair":       func(r *matchAllResponse) { r.Matches[1].B = "s1/cost" },
		"unsorted by score":      func(r *matchAllResponse) { r.Matches[0].Score = 0.6 },
		"unsorted keys on a tie": func(r *matchAllResponse) { r.Matches[1], r.Matches[2] = r.Matches[2], r.Matches[1] },
		"duplicate match":        func(r *matchAllResponse) { r.Matches[2] = r.Matches[1] },
		"match below threshold":  func(r *matchAllResponse) { r.Matches[2].Score = 0.4 },
		"unscored candidates":    func(r *matchAllResponse) { r.Scored = 4 },
		"failed candidates":      func(r *matchAllResponse) { r.Failures = 1 },
		"lost properties":        func(r *matchAllResponse) { r.Properties = 5 },
		"malformed key":          func(r *matchAllResponse) { r.Matches[0].A = "zoom" },
	}
	for name, f := range corrupt {
		r := goodMatchAllResponse()
		f(r)
		if err := checkMatchAllResponse(r, 6, 0.5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSameMatches(t *testing.T) {
	a := goodMatchAllResponse().Matches
	if err := sameMatches(a, goodMatchAllResponse().Matches); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	b := goodMatchAllResponse().Matches
	b[0].Score = 0.9700000000000001
	if err := sameMatches(a, b); err == nil {
		t.Error("score differing in the last bit accepted")
	}
	if err := sameMatches(a, a[:2]); err == nil {
		t.Error("truncated repeat accepted")
	}
}

func TestQualityFloors(t *testing.T) {
	c := counts{tp: 6, fp: 2, fn: 2, tn: 22}
	if got := c.f1(); got != 0.75 {
		t.Errorf("f1 = %v, want 0.75", got)
	}
	if err := checkFloor("f1", c.f1(), 0.5); err != nil {
		t.Errorf("f1 above its floor rejected: %v", err)
	}
	if err := checkFloor("f1", c.f1(), 0.8); err == nil {
		t.Error("f1 below its floor accepted")
	}
	if err := checkFloor("f1", c.f1(), c.f1()); err == nil {
		t.Error("f1 equal to its floor accepted")
	}
	if err := checkSameBits([]float64{0.25, 0.5}, []float64{0.25, 0.5000000000000001}); err == nil {
		t.Error("scores differing in the last bit accepted")
	}
}

func TestTail(t *testing.T) {
	var ok []float64
	for i := 1; i <= 200; i++ {
		ok = append(ok, float64(i))
	}
	if got := tail(ok, 0, 1e9); got != 150 {
		t.Errorf("p75 of 1..200 = %v, want 150", got)
	}
	// Failures count as slower than every success.
	if got := tail(ok[:190], 10, 1e9); got != 150 {
		t.Errorf("p75 with 10 failures = %v, want 150", got)
	}
	if got := tail(ok[:100], 100, 1e9); got != 1e9 {
		t.Errorf("p75 inside the failures = %v, want the miss latency", got)
	}
	// Fewer than ten samples beyond p75: the rank drops to keep ten.
	if got := tail(ok[:40], 0, 1e9); got != 30 {
		t.Errorf("tail of 40 = %v, want 30", got)
	}
	// Fewer than 40: no tail, the median of every operation.
	if got := tail(ok[:4], 0, 1e9); got != 2.5 {
		t.Errorf("tail of 4 = %v, want 2.5", got)
	}
	if got := tail(ok[:3], 2, 1e9); got != 3 {
		t.Errorf("tail of 3 with 2 failures = %v, want 3", got)
	}
}

func TestDrawSplits(t *testing.T) {
	sources := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	splits := drawSplits(sources, 3)
	if len(splits) != 4 {
		t.Fatalf("%d splits of 8 sources, want 4", len(splits))
	}
	heldOut := map[string]int{}
	for _, sp := range splits {
		if len(sp.train) != 6 {
			t.Errorf("split trains on %d sources, want 6", len(sp.train))
		}
		for _, s := range sources {
			if !sp.train[s] {
				heldOut[s]++
			}
		}
	}
	for _, s := range sources {
		if heldOut[s] != 1 {
			t.Errorf("source %s held out %d times, want once", s, heldOut[s])
		}
	}
}

// TestShortRuns runs every workload for one round on a seed other than
// the default; each must pass all of its output checks.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and serves requests")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, ok, err := runWorkload(context.Background(), wl.name, 7, 0, traced, nil)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, traced, err)
			}
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := 7
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s (traced %v): %d metrics, want %d", wl.name, traced, len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || m.Value < 0 {
					t.Errorf("%s (traced %v): %s = %v", wl.name, traced, name, m.Value)
				}
			}
		}
	}
}
