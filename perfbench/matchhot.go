package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/mathx"
)

// match-hot: two clients POST /v1/match requests of 32 pairs, cycling
// through a fixed list of requests over one held-out cameras-lite
// dataset. The list's properties fit the server's feature cache, so
// after the warm-up pass every featurization is a cache hit.
const (
	hotClients       = 2
	hotRequests      = 64
	hotPairs         = 32
	hotMatchesPerReq = 8 // ground-truth matches per request; the rest are non-matches
	hotRescored      = 4 // requests whose scores are re-checked through Matcher.Score
)

type hotRequest struct {
	pairs []dataset.Pair
	truth []bool
	body  []byte
}

type matchHot struct {
	seed      int64
	store     *embedding.Store
	model     []byte
	data      *dataset.Dataset
	reqs      []hotRequest
	srv       *server
	tr        *tracer
	threshold float64
	crc       string

	// Filled by the window: the first answer to every request, and the
	// batcher and cache counters over the window.
	mu         sync.Mutex
	first      []*matchResponse
	batchMean  float64
	cacheRatio float64
}

func setupMatchHot(ctx context.Context, seed int64, tr *tracer) (runner, error) {
	store, err := trainStore()
	if err != nil {
		return nil, err
	}
	model, err := trainFixtureModel(ctx, store)
	if err != nil {
		return nil, err
	}
	d, err := camerasLite(inputSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	reqs, err := hotRequestList(d, seed)
	if err != nil {
		return nil, err
	}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrapHandler
	}
	srv, err := serveModel(store, model, hotClients, wrap)
	if err != nil {
		return nil, err
	}
	h := &matchHot{seed: seed, store: store, model: model, data: d, reqs: reqs, srv: srv, tr: tr,
		threshold: srv.model().Threshold(), crc: fmt.Sprintf("%08x", srv.model().Info.CRC),
		first: make([]*matchResponse, len(reqs))}
	// Warm-up: one pass fills the feature cache and the connections.
	var buf bytes.Buffer
	for i, r := range reqs {
		status, body, err := srv.post("/v1/match", r.body, 0, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return h, nil
}

// hotRequestList draws the request list: hotMatchesPerReq ground-truth
// matches and hotPairs-hotMatchesPerReq random cross-source non-matches
// per request, no pair repeated, in seeded order.
func hotRequestList(d *dataset.Dataset, seed int64) ([]hotRequest, error) {
	rng := mathx.NewRand(seed)
	pos := dataset.MatchingPairs(d.Props)
	wantPos := hotRequests * hotMatchesPerReq
	if len(pos) < wantPos {
		return nil, fmt.Errorf("dataset has %d matching pairs, need %d", len(pos), wantPos)
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	pos = pos[:wantPos]
	seen := map[dataset.Pair]bool{}
	var neg []dataset.Pair
	for len(neg) < hotRequests*(hotPairs-hotMatchesPerReq) {
		a, b := d.Props[rng.Intn(len(d.Props))], d.Props[rng.Intn(len(d.Props))]
		if a.Source == b.Source || dataset.Matching(a, b) {
			continue
		}
		p := dataset.Pair{A: a.Key(), B: b.Key()}.Canonical()
		if !seen[p] {
			seen[p] = true
			neg = append(neg, p)
		}
	}
	values := d.InstancesByProperty()
	reqs := make([]hotRequest, hotRequests)
	for i := range reqs {
		r := &reqs[i]
		for j := 0; j < hotMatchesPerReq; j++ {
			r.pairs = append(r.pairs, pos[i*hotMatchesPerReq+j])
			r.truth = append(r.truth, true)
		}
		nNeg := hotPairs - hotMatchesPerReq
		for j := 0; j < nNeg; j++ {
			r.pairs = append(r.pairs, neg[i*nNeg+j])
			r.truth = append(r.truth, false)
		}
		rng.Shuffle(hotPairs, func(a, b int) {
			r.pairs[a], r.pairs[b] = r.pairs[b], r.pairs[a]
			r.truth[a], r.truth[b] = r.truth[b], r.truth[a]
		})
		var req matchRequest
		for _, p := range r.pairs {
			req.Pairs = append(req.Pairs, pairSpec{
				A: propSpec{Name: p.A.Name, Values: values[p.A]},
				B: propSpec{Name: p.B.Name, Values: values[p.B]},
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	return reqs, nil
}

func (h *matchHot) run(ctx context.Context, deadline time.Time, log *opLog) error {
	before := countersOf(h.srv.srv)
	var wg sync.WaitGroup
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for pass := 0; ctx.Err() == nil; pass++ {
				start := time.Now()
				for i := c; i < len(h.reqs); i += hotClients {
					h.do(i, pass == 0, &buf, log)
				}
				if !roundFits(start, deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	h.batchMean, h.cacheRatio = countersOf(h.srv.srv).since(before)
	return ctx.Err()
}

// do sends request i once, checks the answer and logs the operation.
func (h *matchHot) do(i int, first bool, buf *bytes.Buffer, log *opLog) {
	var op int64
	if h.tr != nil {
		op = h.tr.newID()
	}
	start := time.Now()
	status, body, err := h.srv.post("/v1/match", h.reqs[i].body, op, buf)
	end := time.Now()
	if h.tr != nil {
		h.tr.add(op, 0, "client.match", start, end, hotPairs)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	var resp matchResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err == nil {
		err = checkMatchResponse(&resp, hotPairs, h.threshold, h.crc)
	}
	if err != nil {
		log.fail(fmt.Errorf("match-hot request %d: %w", i, err))
		return
	}
	log.ok(end.Sub(start), hotPairs)
	if first {
		h.mu.Lock()
		h.first[i] = &resp
		h.mu.Unlock()
	}
}

// finish scores the first answers against the generator's truth and
// re-scores hotRescored requests through the library matcher.
func (h *matchHot) finish(ctx context.Context) (float64, error) {
	var c counts
	for i, resp := range h.first {
		if resp == nil {
			continue
		}
		for j, res := range resp.Results {
			c.add(decide(res.Match, h.reqs[i].truth[j]))
		}
	}
	// The floor is the accuracy of always answering the majority class
	// of the request mix.
	majority := float64(max(hotMatchesPerReq, hotPairs-hotMatchesPerReq)) / hotPairs
	fmt.Fprintf(os.Stderr, "perfbench: match-hot accuracy %.4f (floor %.4f), F1 %.4f\n", c.accuracy(), majority, c.f1())
	if err := checkFloor("match-hot accuracy", c.accuracy(), majority); err != nil {
		return c.f1(), err
	}
	m, err := h.libraryMatcher(ctx)
	if err != nil {
		return c.f1(), err
	}
	for i := 0; i < hotRescored; i++ {
		if h.first[i] == nil {
			return c.f1(), fmt.Errorf("request %d has no answer to re-score", i)
		}
		var served, library []float64
		for j, p := range h.reqs[i].pairs {
			sp, err := m.Score(p.A, p.B)
			if err != nil {
				return c.f1(), err
			}
			served = append(served, h.first[i].Results[j].Score)
			library = append(library, sp.Score)
		}
		if err := checkSameBits(served, library); err != nil {
			return c.f1(), fmt.Errorf("match-hot request %d: %w", i, err)
		}
	}
	return c.f1(), nil
}

// libraryMatcher reads the served model file's bytes into a matcher with
// the working set's features.
func (h *matchHot) libraryMatcher(ctx context.Context) (*core.Matcher, error) {
	m, err := loadMatcher(h.store, h.model)
	if err != nil {
		return nil, err
	}
	return m, m.ComputeFeatures(ctx, h.data)
}

// decide classifies one match decision against the truth.
func decide(match, truth bool) counts {
	switch {
	case match && truth:
		return counts{tp: 1}
	case match:
		return counts{fp: 1}
	case truth:
		return counts{fn: 1}
	default:
		return counts{tn: 1}
	}
}

func (h *matchHot) replay(ctx context.Context, tr *tracer) error {
	tr.set("serve.batch_pairs_mean", h.batchMean)
	tr.set("serve.cache_hit_ratio", h.cacheRatio)
	bodies := make([][]byte, len(h.reqs))
	var pairs []dataset.Pair
	for i, r := range h.reqs {
		bodies[i] = r.body
		pairs = append(pairs, r.pairs...)
	}
	var resps []matchResponse
	for _, r := range h.first {
		if r != nil {
			resps = append(resps, *r)
		}
	}
	if err := replayCodec[matchRequest](tr, bodies, resps); err != nil {
		return err
	}
	m, err := h.libraryMatcher(ctx)
	if err != nil {
		return err
	}
	sc, err := m.NewScorer()
	if err != nil {
		return err
	}
	// cameras-lite always has 8 sources, so there is a split to replay.
	sp := drawSplits(h.data.Sources, h.seed)[0]
	return replayLayers(ctx, tr, h.store, sc, h.data, pairs, sp, inputSeed(h.seed, 0), h.model)
}

func (h *matchHot) close() error { return h.srv.close() }
