package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"leapme/internal/blocking"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/index"
)

// match-all: one client POSTs whole catalogues to /v1/match/all with ANN
// blocking, cycling through a fixed list of held-out cameras-lite
// datasets. The list holds more properties than the server's feature
// cache (4096 entries), so under its LRU policy every featurization
// misses, and every request builds and queries a fresh index.
const (
	allCatalogues = 12
	allBlocking   = "ann"
)

type catalogue struct {
	data  *dataset.Dataset
	truth map[string]bool
	body  []byte
}

type matchAll struct {
	seed      int64
	store     *embedding.Store
	model     []byte
	cats      []catalogue
	srv       *server
	tr        *tracer
	threshold float64

	// Filled by the window: the first answer per catalogue, and the
	// batcher and cache counters over the window.
	first      []*matchAllResponse
	batchMean  float64
	cacheRatio float64
}

func setupMatchAll(ctx context.Context, seed int64, tr *tracer) (runner, error) {
	store, err := trainStore()
	if err != nil {
		return nil, err
	}
	model, err := trainFixtureModel(ctx, store)
	if err != nil {
		return nil, err
	}
	// Catalogue 0 only warms the server up; the window cycles 1..N.
	cats := make([]catalogue, allCatalogues+1)
	for i := range cats {
		d, err := camerasLite(inputSeed(seed, i))
		if err != nil {
			return nil, err
		}
		body, err := catalogueBody(d)
		if err != nil {
			return nil, err
		}
		cats[i] = catalogue{data: d, truth: truthSet(d.Props), body: body}
	}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrapHandler
	}
	srv, err := serveModel(store, model, 1, wrap)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	status, body, err := srv.post("/v1/match/all", cats[0].body, 0, &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return &matchAll{seed: seed, store: store, model: model, cats: cats[1:], srv: srv, tr: tr,
		threshold: srv.model().Threshold(), first: make([]*matchAllResponse, allCatalogues)}, nil
}

// annCandidates runs the handler's "ann" blocking on props in the order
// the handler gives it a request's properties, by source and then name.
// The candidate set depends on that order: on dataset order it differed
// from the handler's by one pair on some catalogues.
func annCandidates(ctx context.Context, store *embedding.Store, props []dataset.Property) ([]dataset.Pair, error) {
	sorted := append([]dataset.Property(nil), props...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Source != sorted[j].Source {
			return sorted[i].Source < sorted[j].Source
		}
		return sorted[i].Name < sorted[j].Name
	})
	return blocking.NewANNBlocker(store, index.Options{}).CandidatesCtx(ctx, sorted)
}

// catalogueBody encodes every source of d as one /v1/match/all request.
func catalogueBody(d *dataset.Dataset) ([]byte, error) {
	values := d.InstancesByProperty()
	req := matchAllRequest{Sources: map[string][]propSpec{}, Blocking: allBlocking}
	for _, p := range d.Props {
		req.Sources[p.Source] = append(req.Sources[p.Source], propSpec{Name: p.Name, Values: values[p.Key()]})
	}
	return json.Marshal(req)
}

func (a *matchAll) run(ctx context.Context, deadline time.Time, log *opLog) error {
	before := countersOf(a.srv.srv)
	var buf bytes.Buffer
	for round := 0; ctx.Err() == nil; round++ {
		start := time.Now()
		for i := range a.cats {
			a.do(i, round == 0, &buf, log)
		}
		if !roundFits(start, deadline) {
			break
		}
	}
	a.batchMean, a.cacheRatio = countersOf(a.srv.srv).since(before)
	return ctx.Err()
}

// do sends catalogue i once, checks the answer (and, after the first
// round, that it repeats the first answer) and logs the operation.
func (a *matchAll) do(i int, first bool, buf *bytes.Buffer, log *opLog) {
	var op int64
	if a.tr != nil {
		op = a.tr.newID()
	}
	start := time.Now()
	status, body, err := a.srv.post("/v1/match/all", a.cats[i].body, op, buf)
	end := time.Now()
	if a.tr != nil {
		a.tr.add(op, 0, "client.match_all", start, end, len(a.cats[i].data.Props))
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	var resp matchAllResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err == nil {
		err = checkMatchAllResponse(&resp, len(a.cats[i].data.Props), a.threshold)
	}
	if err == nil && !first && a.first[i] != nil {
		if a.first[i].Candidates != resp.Candidates {
			err = fmt.Errorf("repeated request proposed %d candidates, first answer %d", resp.Candidates, a.first[i].Candidates)
		} else {
			err = sameMatches(a.first[i].Matches, resp.Matches)
		}
	}
	if err != nil {
		log.fail(fmt.Errorf("match-all catalogue %d: %w", i, err))
		return
	}
	log.ok(end.Sub(start), resp.Scored)
	if first {
		a.first[i] = &resp
	}
}

// finish scores the first answers against the generator's truth. The
// floor is the F1 of accepting every candidate the handler's blocking
// proposes, which also checks the server's candidate counts.
func (a *matchAll) finish(ctx context.Context) (float64, error) {
	var model, acceptAll counts
	for i, resp := range a.first {
		if resp == nil {
			continue
		}
		c := &a.cats[i]
		var got counts
		for _, m := range resp.Matches {
			if c.truth[m.A+"|"+m.B] {
				got.tp++
			} else {
				got.fp++
			}
		}
		got.fn = len(c.truth) - got.tp
		model.add(got)
		cands, err := annCandidates(ctx, a.store, c.data.Props)
		if err != nil {
			return model.f1(), err
		}
		if len(cands) != resp.Candidates {
			return model.f1(), fmt.Errorf("catalogue %d: server proposed %d candidates, the blocker %d", i, resp.Candidates, len(cands))
		}
		var all counts
		for _, p := range cands {
			if c.truth[pairKey(p)] {
				all.tp++
			} else {
				all.fp++
			}
		}
		all.fn = len(c.truth) - all.tp
		acceptAll.add(all)
	}
	if model.tp+model.fp+model.fn == 0 {
		return 0, errors.New("no catalogue was answered")
	}
	fmt.Fprintf(os.Stderr, "perfbench: match-all F1 %.4f; accepting every candidate %.4f\n", model.f1(), acceptAll.f1())
	return model.f1(), checkFloor("match-all F1", model.f1(), acceptAll.f1())
}

func (a *matchAll) replay(ctx context.Context, tr *tracer) error {
	tr.set("serve.batch_pairs_mean", a.batchMean)
	tr.set("serve.cache_hit_ratio", a.cacheRatio)
	bodies := make([][]byte, len(a.cats))
	var resps []matchAllResponse
	for i, c := range a.cats {
		bodies[i] = c.body
		if a.first[i] != nil {
			resps = append(resps, *a.first[i])
		}
	}
	if err := replayCodec[matchAllRequest](tr, bodies, resps); err != nil {
		return err
	}
	d := a.cats[0].data
	cands, err := annCandidates(ctx, a.store, d.Props)
	if err != nil {
		return err
	}
	m, err := loadMatcher(a.store, a.model)
	if err != nil {
		return err
	}
	sc, err := m.NewScorer()
	if err != nil {
		return err
	}
	// cameras-lite always has 8 sources, so there is a split to replay.
	sp := drawSplits(d.Sources, a.seed)[0]
	return replayLayers(ctx, tr, a.store, sc, d, cands, sp, inputSeed(a.seed, 1), a.model)
}

func (a *matchAll) close() error { return a.srv.close() }
