package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"leapme/internal/baselines"
	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/mathx"
)

// eval: one caller runs the paper's protocol through the library
// defaults. One operation is one 80/20 source split of cameras-lite:
// featurize, sample two negatives per positive, train, classify every
// test pair with Matcher.MatchWhere and score against the truth.
const (
	evalTrainFrac = 0.8
	// evalPartitions is how many seeded source partitions make a round;
	// with 8 sources each gives 4 splits. One partition made a 20 s
	// window of 4 splits whose median moved by a quarter with the host's
	// load; two double the samples and the time they average over.
	evalPartitions = 2
	// evalMargin is the clear margin by which LEAPME must beat the
	// Nezhadi baseline on the same splits (the paper's Table II ordering).
	evalMargin = 0.10
	// evalSample is how many test pairs per split are kept to re-score
	// after a model round trip and to replay through the layers.
	evalSample = 512
	// evalRoundTrip of them are re-scored after WriteModel → ReadModel.
	evalRoundTrip = 64
)

// split is one train/test division of a dataset's sources.
type split struct {
	seed  int64
	train map[string]bool
}

// isTest reports whether a pair is classified under the split: the
// paper tests every pair not wholly inside the training sources.
func (s split) isTest(a, b dataset.Property) bool { return !(s.train[a.Source] && s.train[b.Source]) }

// drawSplits partitions the sources by a seeded permutation into folds
// of held-out sources, each split training on evalTrainFrac of them. The
// folds together hold every source out exactly once, so a partition's
// cost does not hinge on which sources one seed happened to draw.
func drawSplits(sources []string, seed int64) []split {
	nTest := len(sources) - int(math.Round(evalTrainFrac*float64(len(sources))))
	if nTest < 1 {
		nTest = 1
	}
	perm := mathx.NewRand(seed).Perm(len(sources))
	var out []split
	for f := 0; (f+1)*nTest <= len(sources) && len(sources)-nTest >= 2; f++ {
		sp := split{seed: inputSeed(seed, f), train: map[string]bool{}}
		for i, idx := range perm {
			if i < f*nTest || i >= (f+1)*nTest {
				sp.train[sources[idx]] = true
			}
		}
		out = append(out, sp)
	}
	return out
}

// splitTruth is the generator's truth among a split's test pairs.
func splitTruth(d *dataset.Dataset, sp split) map[string]bool {
	t := map[string]bool{}
	for _, p := range dataset.MatchingPairs(d.Props) {
		if !(sp.train[p.A.Source] && sp.train[p.B.Source]) {
			t[pairKey(p)] = true
		}
	}
	return t
}

// splitResult is the outcome of one split.
type splitResult struct {
	loss   float64
	c      counts
	scored int
	m      *core.Matcher
	// The first evalSample test pairs and their scores.
	sample []dataset.Pair
	scores []float64
}

type evalRun struct {
	store  *embedding.Store
	data   *dataset.Dataset
	splits []split
	truths []map[string]bool
	first  []*splitResult
}

func setupEval(ctx context.Context, seed int64, tr *tracer) (runner, error) {
	store, err := trainStore()
	if err != nil {
		return nil, err
	}
	// The evaluation dataset is fixed (the repository's cameras-lite);
	// the seed draws the splits.
	d, err := camerasLite(fixtureSeed)
	if err != nil {
		return nil, err
	}
	var splits []split
	for p := 0; p < evalPartitions; p++ {
		splits = append(splits, drawSplits(d.Sources, inputSeed(seed, p))...)
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("cannot split %d sources", len(d.Sources))
	}
	e := &evalRun{store: store, data: d, splits: splits, first: make([]*splitResult, len(splits))}
	for _, sp := range splits {
		e.truths = append(e.truths, splitTruth(d, sp))
	}
	return e, nil
}

// runSplit is one operation.
func (e *evalRun) runSplit(ctx context.Context, i int) (*splitResult, error) {
	sp := e.splits[i]
	m, err := core.NewMatcher(e.store, core.DefaultOptions(sp.seed))
	if err != nil {
		return nil, err
	}
	if err := m.ComputeFeatures(ctx, e.data); err != nil {
		return nil, err
	}
	pairs := core.TrainingPairs(e.data.PropsOfSources(sp.train), 2, mathx.NewRand(sp.seed))
	loss, err := m.Train(ctx, pairs)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return nil, fmt.Errorf("training loss %v", loss)
	}
	r := &splitResult{loss: loss, m: m}
	truth := e.truths[i]
	err = m.MatchWhere(ctx, e.data.Props, sp.isTest, func(s core.ScoredPair) {
		r.scored++
		r.c.add(decide(s.Match, truth[pairKey(dataset.Pair{A: s.A, B: s.B})]))
		if len(r.sample) < evalSample {
			r.sample = append(r.sample, dataset.Pair{A: s.A, B: s.B})
			r.scores = append(r.scores, s.Score)
		}
	})
	if err != nil {
		return nil, err
	}
	if r.scored == 0 {
		return nil, errors.New("no test pair classified")
	}
	return r, nil
}

func (e *evalRun) run(ctx context.Context, deadline time.Time, log *opLog) error {
	for round := 0; ctx.Err() == nil; round++ {
		start := time.Now()
		for i := range e.splits {
			e.do(ctx, i, round == 0, log)
		}
		if !roundFits(start, deadline) {
			break
		}
	}
	return ctx.Err()
}

// do runs split i once, checks it (and, after the first round, that it
// reproduced the first outcome) and logs the operation.
func (e *evalRun) do(ctx context.Context, i int, first bool, log *opLog) {
	start := time.Now()
	r, err := e.runSplit(ctx, i)
	d := time.Since(start)
	if err == nil && !first && e.first[i] != nil {
		err = sameSplit(e.first[i], r)
	}
	if err != nil {
		log.fail(fmt.Errorf("eval split %d: %w", i, err))
		return
	}
	log.ok(d, r.scored)
	if first {
		e.first[i] = r
	}
}

// sameSplit checks that a repeated split reproduced its first outcome.
func sameSplit(a, b *splitResult) error {
	if math.Float64bits(a.loss) != math.Float64bits(b.loss) || a.c != b.c || a.scored != b.scored {
		return fmt.Errorf("repeated split differs: loss %v/%v, counts %+v/%+v", a.loss, b.loss, a.c, b.c)
	}
	return nil
}

// finish checks the model round trip of every split, and that on the
// first partition's splits the mean F1 beats the Nezhadi baseline on the
// same splits by evalMargin.
func (e *evalRun) finish(ctx context.Context) (float64, error) {
	var sum float64
	n := 0
	for i, r := range e.first {
		if r == nil {
			continue
		}
		sum += r.c.f1()
		n++
		if err := roundTrip(e.store, e.splits[i], r); err != nil {
			return 0, fmt.Errorf("eval split %d: %w", i, err)
		}
	}
	if n == 0 {
		return 0, errors.New("no split completed")
	}
	f1 := sum / float64(n)
	// The baseline's string features gain from a second vCPU, unlike
	// LEAPME's dense arithmetic, so its splits run two at a time.
	k := len(e.splits) / evalPartitions
	values := e.data.InstancesByProperty()
	base := make([]float64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < k; i += 2 {
				base[i], errs[i] = nezhadiSplit(e.data, values, e.splits[i], e.truths[i])
			}
		}(w)
	}
	wg.Wait()
	var leapme, nezhadi float64
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return f1, fmt.Errorf("nezhadi split %d: %w", i, errs[i])
		}
		if e.first[i] == nil {
			return f1, fmt.Errorf("eval split %d did not complete", i)
		}
		leapme += e.first[i].c.f1()
		nezhadi += base[i]
	}
	leapme, nezhadi = leapme/float64(k), nezhadi/float64(k)
	fmt.Fprintf(os.Stderr, "perfbench: eval mean F1 %.4f over %d splits; on the first %d, LEAPME %.4f and Nezhadi %.4f\n", f1, n, k, leapme, nezhadi)
	return f1, checkFloor("eval mean F1 on the first partition", leapme, nezhadi+evalMargin)
}

// roundTrip writes the split's model, reads it into a fresh matcher and
// checks that it reproduces the first evalRoundTrip test scores.
func roundTrip(store *embedding.Store, sp split, r *splitResult) error {
	var buf bytes.Buffer
	if err := r.m.WriteModel(&buf); err != nil {
		return err
	}
	m, err := core.NewMatcher(store, core.DefaultOptions(sp.seed))
	if err != nil {
		return err
	}
	if err := m.AdoptFeatures(r.m); err != nil {
		return err
	}
	if err := m.ReadModel(&buf); err != nil {
		return err
	}
	k := min(evalRoundTrip, len(r.sample))
	again := make([]float64, k)
	for j, p := range r.sample[:k] {
		s, err := m.Score(p.A, p.B)
		if err != nil {
			return err
		}
		again[j] = s.Score
	}
	if err := checkSameBits(again, r.scores[:k]); err != nil {
		return fmt.Errorf("model round trip: %w", err)
	}
	return nil
}

// nezhadiSplit is the Nezhadi baseline's F1 on one split, trained on the
// same sampled pairs as LEAPME.
func nezhadiSplit(d *dataset.Dataset, values map[dataset.Key][]string, sp split, truth map[string]bool) (float64, error) {
	trainProps := d.PropsOfSources(sp.train)
	var pos, neg []dataset.Pair
	for _, lp := range core.TrainingPairs(trainProps, 2, mathx.NewRand(sp.seed)) {
		if lp.Match {
			pos = append(pos, dataset.Pair{A: lp.A, B: lp.B})
		} else {
			neg = append(neg, dataset.Pair{A: lp.A, B: lp.B})
		}
	}
	nz := baselines.NewNezhadi()
	if err := nz.Train(baselines.Input{Props: trainProps, Values: values}, pos, neg); err != nil {
		return 0, err
	}
	// Classify every test pair, one pair of sources at a time, so the
	// training pairs the split does not test are never enumerated.
	bySource := map[string][]dataset.Property{}
	for _, p := range d.Props {
		bySource[p.Source] = append(bySource[p.Source], p)
	}
	var c counts
	for i, a := range d.Sources {
		for _, b := range d.Sources[i+1:] {
			if sp.train[a] && sp.train[b] {
				continue
			}
			props := append(append([]dataset.Property(nil), bySource[a]...), bySource[b]...)
			matches, err := nz.Match(baselines.Input{Props: props, Values: values})
			if err != nil {
				return 0, err
			}
			for _, m := range matches {
				if truth[pairKey(m.Pair)] {
					c.tp++
				} else {
					c.fp++
				}
			}
		}
	}
	c.fn = len(truth) - c.tp
	return c.f1(), nil
}

func (e *evalRun) replay(ctx context.Context, tr *tracer) error {
	r := e.first[0]
	if r == nil {
		return errors.New("split 0 did not complete")
	}
	var model bytes.Buffer
	if err := r.m.WriteModel(&model); err != nil {
		return err
	}
	if err := e.replayServe(tr, model.Bytes(), r.sample); err != nil {
		return err
	}
	sc, err := r.m.NewScorer()
	if err != nil {
		return err
	}
	return replayLayers(ctx, tr, e.store, sc, e.data, r.sample, e.splits[0], fixtureSeed, model.Bytes())
}

// replayServe serves split 0's model (eval itself serves nothing) and
// drives its sampled test pairs through the handler in 32-pair requests:
// one pass to warm the cache, one timed pass.
func (e *evalRun) replayServe(tr *tracer, model []byte, pairs []dataset.Pair) error {
	path, err := writeModelFile(model)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	srv, err := newServe(e.store, path)
	if err != nil {
		return err
	}
	defer srv.Close()
	values := e.data.InstancesByProperty()
	var bodies [][]byte
	for lo := 0; lo+replayBatch <= len(pairs); lo += replayBatch {
		var req matchRequest
		for _, p := range pairs[lo : lo+replayBatch] {
			req.Pairs = append(req.Pairs, pairSpec{
				A: propSpec{Name: p.A.Name, Values: values[p.A]},
				B: propSpec{Name: p.B.Name, Values: values[p.B]},
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	serveOne := func(body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	for _, b := range bodies {
		if _, err := serveOne(b); err != nil {
			return err
		}
	}
	before := countersOf(srv)
	var resps []matchResponse
	for _, b := range bodies {
		var rec *httptest.ResponseRecorder
		if err := tr.time("serve.handler", 1, func() error {
			var err error
			rec, err = serveOne(b)
			return err
		}); err != nil {
			return err
		}
		var resp matchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		resps = append(resps, resp)
	}
	batchMean, hitRatio := countersOf(srv).since(before)
	tr.set("serve.batch_pairs_mean", batchMean)
	tr.set("serve.cache_hit_ratio", hitRatio)
	return replayCodec[matchRequest](tr, bodies, resps)
}

func (e *evalRun) close() error { return nil }
