package main

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"leapme/internal/dataset"
)

// The output checks every workload applies. Each returns nil for a
// correct output and an error naming the first defect otherwise; a
// response that fails a check counts as a failed operation.

// checkMatchResponse checks one /v1/match answer for a request of n
// pairs: one result per pair, no per-pair error, scores in [0, 1] and
// match == (score >= threshold), served by the expected model.
func checkMatchResponse(r *matchResponse, n int, threshold float64, crc string) error {
	if r.CRC != crc {
		return fmt.Errorf("model_crc %q, want %q", r.CRC, crc)
	}
	if len(r.Results) != n {
		return fmt.Errorf("%d results for %d pairs", len(r.Results), n)
	}
	for i, res := range r.Results {
		if res.Error != "" {
			return fmt.Errorf("pair %d: %s", i, res.Error)
		}
		if !(res.Score >= 0 && res.Score <= 1) {
			return fmt.Errorf("pair %d: score %v outside [0, 1]", i, res.Score)
		}
		if res.Match != (res.Score >= threshold) {
			return fmt.Errorf("pair %d: match=%v with score %v and threshold %v", i, res.Match, res.Score, threshold)
		}
	}
	return nil
}

// sourceOf returns the source of a "source/name" key.
func sourceOf(key string) (string, error) {
	src, _, ok := strings.Cut(key, "/")
	if !ok || src == "" {
		return "", fmt.Errorf("malformed property key %q", key)
	}
	return src, nil
}

// checkMatchAllResponse checks one /v1/match/all answer for a catalogue
// of props properties: every candidate scored without failure, no
// same-source pair, every match at or above threshold, and matches in
// the documented total order (score descending, then a, then b).
func checkMatchAllResponse(r *matchAllResponse, props int, threshold float64) error {
	if r.Properties != props {
		return fmt.Errorf("properties %d, want %d", r.Properties, props)
	}
	if r.Candidates <= 0 {
		return errors.New("no candidates")
	}
	if r.Scored != r.Candidates || r.Failures != 0 {
		return fmt.Errorf("scored %d of %d candidates with %d failures", r.Scored, r.Candidates, r.Failures)
	}
	if len(r.Matches) > r.Candidates {
		return fmt.Errorf("%d matches from %d candidates", len(r.Matches), r.Candidates)
	}
	for i, m := range r.Matches {
		sa, err := sourceOf(m.A)
		if err != nil {
			return err
		}
		sb, err := sourceOf(m.B)
		if err != nil {
			return err
		}
		if sa == sb {
			return fmt.Errorf("match %d pairs %s with %s from the same source", i, m.A, m.B)
		}
		if !(m.Score >= threshold && m.Score <= 1) {
			return fmt.Errorf("match %d (%s, %s): score %v outside [%v, 1]", i, m.A, m.B, m.Score, threshold)
		}
		if i > 0 && !matchBefore(r.Matches[i-1], m) {
			return fmt.Errorf("matches %d and %d out of order", i-1, i)
		}
	}
	return nil
}

// matchBefore reports whether a strictly precedes b in the response
// order; equal entries (duplicates) do not.
func matchBefore(a, b matchAllMatch) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// sameMatches checks that a repeated request was answered identically,
// bit for bit and in the same order.
func sameMatches(first, again []matchAllMatch) error {
	if len(first) != len(again) {
		return fmt.Errorf("repeated request returned %d matches, first answer had %d", len(again), len(first))
	}
	for i := range first {
		a, b := first[i], again[i]
		if a.A != b.A || a.B != b.B || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			return fmt.Errorf("repeated request differs at match %d: (%s, %s, %v) vs (%s, %s, %v)", i, a.A, a.B, a.Score, b.A, b.B, b.Score)
		}
	}
	return nil
}

// pairKey is the canonical "a|b" form of a property pair.
func pairKey(p dataset.Pair) string {
	c := p.Canonical()
	return c.A.String() + "|" + c.B.String()
}

// truthSet returns the generator's ground-truth matches among props.
func truthSet(props []dataset.Property) map[string]bool {
	t := map[string]bool{}
	for _, p := range dataset.MatchingPairs(props) {
		t[pairKey(p)] = true
	}
	return t
}

// counts accumulates a confusion count against the generator's truth.
type counts struct{ tp, fp, fn, tn int }

func (c *counts) add(o counts) { c.tp += o.tp; c.fp += o.fp; c.fn += o.fn; c.tn += o.tn }

// f1 is the harmonic mean of precision and recall (0 when undefined).
func (c counts) f1() float64 {
	if 2*c.tp+c.fp+c.fn == 0 {
		return 0
	}
	return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn)
}

// accuracy is the share of decisions that agree with the truth.
func (c counts) accuracy() float64 {
	n := c.tp + c.fp + c.fn + c.tn
	if n == 0 {
		return 0
	}
	return float64(c.tp+c.tn) / float64(n)
}

// checkFloor fails when a quality figure does not exceed its floor.
func checkFloor(what string, got, floor float64) error {
	if !(got > floor) {
		return fmt.Errorf("%s %.4f is not above its floor %.4f", what, got, floor)
	}
	return nil
}

// checkSameBits fails unless every served score equals the library
// score bit for bit.
func checkSameBits(served, library []float64) error {
	if len(served) != len(library) {
		return fmt.Errorf("%d served scores, %d library scores", len(served), len(library))
	}
	for i := range served {
		if math.Float64bits(served[i]) != math.Float64bits(library[i]) {
			return fmt.Errorf("pair %d: served score %v, library score %v", i, served[i], library[i])
		}
	}
	return nil
}
