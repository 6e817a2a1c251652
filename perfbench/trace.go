package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/index"
	"leapme/internal/mathx"
	"leapme/internal/nn"
	"leapme/internal/serve"
	"leapme/internal/text"
)

// opHeader carries a client operation's span id to the handler shim so
// the handler span names the operation that caused it.
const opHeader = "X-Perfbench-Op"

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
	// values are per-layer figures that are ratios or counts rather
	// than span durations (cache hit ratio, blocking recall, ...).
	values map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string]float64{}} }

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.values = map[string]float64{}
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// newID reserves a span id before the span ends, so children can name it.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span.
func (t *tracer) add(id, parent int64, layer string, start, end time.Time, items int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Items: items})
	t.mu.Unlock()
}

// time runs f as one span of layer covering items units of work.
func (t *tracer) time(layer string, items int, f func() error) error {
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(id, 0, layer, start, time.Now(), items)
	if err != nil {
		return fmt.Errorf("%s: %w", layer, err)
	}
	return nil
}

func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// wrapHandler times every ServeHTTP call of h as a serve.handler span,
// parented to the client operation named in opHeader.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.newID()
		parent, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(id, parent, "serve.handler", start, time.Now(), 1)
	})
}

// layerStats sums a layer's spans.
type layerStats struct {
	items int
	total time.Duration
	durs  []float64 // per call, ms
}

func (t *tracer) byLayer() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerStats{}
	for _, s := range t.spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			out[s.Layer] = ls
		}
		d := time.Duration(s.End - s.Start)
		ls.items += s.Items
		ls.total += d
		ls.durs = append(ls.durs, float64(d)/1e6)
	}
	return out
}

// perLayer lists every per-layer metric: its name, unit, and how it is
// derived from the spans of one layer ("median" call in ms, "per item"
// in µs, or "median_s" for seconds) or from a recorded value.
var perLayer = []struct {
	name, unit, layer, how string
}{
	{"serve.handler_ms", "ms", "serve.handler", "median"},
	{"serve.decode_us", "us", "serve.decode", "per item"},
	{"serve.encode_us", "us", "serve.encode", "per item"},
	{"serve.batch_pairs_mean", "pairs", "", "value"},
	{"serve.cache_hit_ratio", "ratio", "", "value"},
	{"features.featurize_us_per_prop", "us", "features.featurize", "per item"},
	{"features.pair_vector_us_per_pair", "us", "features.pair_vector", "per item"},
	{"text.distances_us_per_pair", "us", "text.distances", "per item"},
	{"nn.forward_us_per_pair", "us", "nn.forward", "per item"},
	{"core.score_batch_us_per_pair", "us", "core.score_batch", "per item"},
	{"blocking.candidates_ms", "ms", "blocking.candidates", "median"},
	{"blocking.candidates_per_prop", "count", "", "value"},
	{"blocking.recall", "ratio", "", "value"},
	{"blocking.true_ratio", "ratio", "", "value"},
	{"index.build_ms", "ms", "index.build", "median"},
	{"index.query_us_per_prop", "us", "index.query", "per item"},
	{"features.feature_matrix_ms", "ms", "features.feature_matrix", "median"},
	{"core.training_pairs_ms", "ms", "core.training_pairs", "median"},
	{"core.train_ms", "ms", "core.train", "median"},
	{"nn.fit_ms", "ms", "nn.fit", "median"},
	{"core.match_us_per_pair", "us", "core.match", "per item"},
	{"embedding.glove_s", "s", "embedding.glove", "median_s"},
	{"dataset.generate_ms", "ms", "dataset.generate", "median"},
	{"core.model_load_ms", "ms", "core.model_load", "median"},
	{"trace.window_p50_ms", "ms", "", "value"},
}

// metrics derives every per-layer metric. A layer without spans reads
// NaN, which fails JSON encoding loudly rather than printing a zero.
func (t *tracer) metrics() map[string]metric {
	layers := t.byLayer()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]metric{}
	for _, m := range perLayer {
		v := math.NaN()
		ls := layers[m.layer]
		switch {
		case m.how == "value":
			if x, ok := t.values[m.name]; ok {
				v = x
			}
		case ls == nil:
		case m.how == "median":
			v = median(ls.durs)
		case m.how == "median_s":
			v = median(ls.durs) / 1e3
		case m.how == "per item" && ls.items > 0:
			v = float64(ls.total) / 1e3 / float64(ls.items)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

func (t *tracer) marshal() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.Marshal(map[string]any{"spans": t.spans})
}

// --- replays: each layer's public functions on a workload's inputs ---

// replayBatch is the pair batch size of the per-pair replays, the
// serving layer's default micro-batch.
const replayBatch = 32

// replayLayers replays every layer below the handler on one workload's
// inputs: the scorer's path on pairs, ANN blocking and the index on d's
// properties, the protocol on split sp of d, and the set-up layers.
func replayLayers(ctx context.Context, tr *tracer, store *embedding.Store, sc *core.Scorer, d *dataset.Dataset, pairs []dataset.Pair, sp split, genSeed int64, model []byte) error {
	if err := replayScoring(tr, store, sc, d, pairs); err != nil {
		return err
	}
	if err := replayBlocking(ctx, tr, store, d.Props); err != nil {
		return err
	}
	if err := replayProtocol(ctx, tr, store, d, sp); err != nil {
		return err
	}
	return replaySetup(tr, genSeed, store, model)
}

// replaySetup times the set-up layers: the embedding store, one input
// dataset, and loading a model into a server.
func replaySetup(tr *tracer, genSeed int64, store *embedding.Store, model []byte) error {
	if err := tr.time("embedding.glove", 1, func() error { _, err := trainStore(); return err }); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := tr.time("dataset.generate", 1, func() error { _, err := camerasLite(genSeed); return err }); err != nil {
			return err
		}
	}
	path, err := writeModelFile(model)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	for i := 0; i < 3; i++ {
		var srv *serve.Server
		if err := tr.time("core.model_load", 1, func() error {
			var err error
			srv, err = newServe(store, path)
			return err
		}); err != nil {
			return err
		}
		srv.Close()
	}
	return nil
}

// replayCodec times JSON decode of the workload's request bodies into
// the wire schema (as the handler decodes them) and encode of its
// responses.
func replayCodec[Req any, Resp any](tr *tracer, bodies [][]byte, responses []Resp) error {
	for _, b := range bodies {
		if err := tr.time("serve.decode", 1, func() error {
			var req Req
			return decodeStrict(b, &req)
		}); err != nil {
			return err
		}
	}
	for i := range responses {
		if err := tr.time("serve.encode", 1, func() error {
			_, err := json.Marshal(&responses[i])
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayScoring times featurization of props, then the pair path on
// pairs in serving-sized batches: pair vectors, string distances, the
// inference kernel of a network of the served shape, and the scorer's
// whole batch.
func replayScoring(tr *tracer, store *embedding.Store, sc *core.Scorer, d *dataset.Dataset, pairs []dataset.Pair) error {
	values := d.InstancesByProperty()
	feats := make(map[dataset.Key]*features.Prop, len(d.Props))
	for _, p := range d.Props {
		if err := tr.time("features.featurize", 1, func() error {
			feats[p.Key()] = sc.Featurize(p.Name, values[p.Key()])
			return nil
		}); err != nil {
			return err
		}
	}
	pairer, err := features.NewPairer(features.NewExtractor(store), sc.Features())
	if err != nil {
		return err
	}
	net, err := nn.New(nn.Config{InDim: pairer.Dim(), Hidden: core.DefaultOptions(0).Hidden, Out: 2, Activation: nn.ActReLU, Seed: fixtureSeed})
	if err != nil {
		return err
	}
	kern := nn.NewKernel(net)
	dim := pairer.Dim()
	xs := make([]float64, replayBatch*dim)
	dist := make([]float64, features.NumPairDistances)
	probs := make([]float64, replayBatch*kern.OutDim())
	scratch := make([]float64, kern.BatchScratchLen(replayBatch))
	scores := make([]float64, replayBatch)
	var es text.EditScratch
	as := make([]*features.Prop, 0, replayBatch)
	bs := make([]*features.Prop, 0, replayBatch)
	for lo := 0; lo+replayBatch <= len(pairs); lo += replayBatch {
		as, bs = as[:0], bs[:0]
		for _, p := range pairs[lo : lo+replayBatch] {
			as = append(as, feats[p.A])
			bs = append(bs, feats[p.B])
		}
		steps := []struct {
			layer string
			f     func() error
		}{
			{"features.pair_vector", func() error {
				for i := range as {
					pairer.PairVectorScratch(xs[i*dim:(i+1)*dim], as[i], bs[i], &es)
				}
				return nil
			}},
			{"text.distances", func() error {
				for i := range as {
					features.PairDistancesScratch(dist, as[i], bs[i], &es)
				}
				return nil
			}},
			{"nn.forward", func() error {
				kern.ForwardBatch(probs, xs, replayBatch, scratch)
				return nil
			}},
			{"core.score_batch", func() error { return sc.ScoreBatch(scores, as, bs) }},
		}
		for _, s := range steps {
			if err := tr.time(s.layer, replayBatch, s.f); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayBlocking times ANN blocking over props as the handler's "ann"
// mode runs it, and the index beneath it, and records how much of the
// generator's truth the candidates keep.
func replayBlocking(ctx context.Context, tr *tracer, store *embedding.Store, props []dataset.Property) error {
	var cands []dataset.Pair
	for i := 0; i < 3; i++ {
		if err := tr.time("blocking.candidates", len(props), func() error {
			var err error
			cands, err = annCandidates(ctx, store, props)
			return err
		}); err != nil {
			return err
		}
	}
	truth := truthSet(props)
	hit := 0
	for _, c := range cands {
		if truth[pairKey(c)] {
			hit++
		}
	}
	tr.set("blocking.candidates_per_prop", float64(len(cands))/float64(len(props)))
	tr.set("blocking.recall", float64(hit)/float64(len(truth)))
	tr.set("blocking.true_ratio", float64(hit)/float64(len(cands)))

	vecs := make([][]float64, len(props))
	for i, p := range props {
		vecs[i] = store.EncodePhrase(p.Name)
	}
	var ix index.Index
	for i := 0; i < 3; i++ {
		if err := tr.time("index.build", len(vecs), func() error {
			var err error
			ix, err = index.Build(ctx, vecs, index.Options{})
			return err
		}); err != nil {
			return err
		}
	}
	// The blocker over-fetches 2K+4 neighbours per property (K = 10).
	const fetch = 24
	for lo := 0; lo < len(vecs); lo += replayBatch {
		hi := min(lo+replayBatch, len(vecs))
		if err := tr.time("index.query", hi-lo, func() error {
			for _, v := range vecs[lo:hi] {
				ix.Query(v, fetch)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayProtocol times the paper's protocol on one split of d: the
// feature matrix, training-pair sampling, Matcher.Train on the default
// path, Network.Fit on the same standardised pair matrix, and
// Matcher.MatchWhere over the split's test pairs.
func replayProtocol(ctx context.Context, tr *tracer, store *embedding.Store, d *dataset.Dataset, sp split) error {
	m, err := core.NewMatcher(store, core.DefaultOptions(sp.seed))
	if err != nil {
		return err
	}
	if err := tr.time("features.feature_matrix", len(d.Props), func() error { return m.ComputeFeatures(ctx, d) }); err != nil {
		return err
	}
	trainProps := d.PropsOfSources(sp.train)
	var pairs []core.LabeledPair
	if err := tr.time("core.training_pairs", 1, func() error {
		pairs = core.TrainingPairs(trainProps, 2, mathx.NewRand(sp.seed))
		return nil
	}); err != nil {
		return err
	}
	if err := tr.time("core.train", len(pairs), func() error { _, err := m.Train(ctx, pairs); return err }); err != nil {
		return err
	}

	// The same pair matrix, standardised as Train does, through the
	// network's default (serial) Fit.
	ex := features.NewExtractor(store)
	pairer, err := features.NewPairer(ex, features.FullConfig())
	if err != nil {
		return err
	}
	values := d.InstancesByProperty()
	feats := map[dataset.Key]*features.Prop{}
	for _, p := range trainProps {
		feats[p.Key()] = ex.PropertyFeatures(p.Name, values[p.Key()])
	}
	xs := make([][]float64, len(pairs))
	ys := make([]int, len(pairs))
	for i, lp := range pairs {
		xs[i] = pairer.NewPairVector(feats[lp.A], feats[lp.B])
		if lp.Match {
			ys[i] = 1
		}
	}
	standardize(xs)
	opts := core.DefaultOptions(sp.seed)
	net, err := nn.New(nn.Config{InDim: pairer.Dim(), Hidden: opts.Hidden, Out: 2, Activation: nn.ActReLU, Seed: sp.seed})
	if err != nil {
		return err
	}
	if err := tr.time("nn.fit", len(xs), func() error {
		_, err := net.Fit(ctx, xs, ys, nn.TrainConfig{Schedule: opts.Schedule, BatchSize: opts.BatchSize, Optimizer: nn.NewAdam(), Seed: sp.seed})
		return err
	}); err != nil {
		return err
	}

	scored := 0
	id := tr.newID()
	start := time.Now()
	err = m.MatchWhere(ctx, d.Props, sp.isTest, func(core.ScoredPair) { scored++ })
	tr.add(id, 0, "core.match", start, time.Now(), scored)
	return err
}

// standardize z-scores each column of xs in place.
func standardize(xs [][]float64) {
	if len(xs) == 0 {
		return
	}
	n := float64(len(xs))
	for c := range xs[0] {
		var mean float64
		for _, x := range xs {
			mean += x[c]
		}
		mean /= n
		var ss float64
		for _, x := range xs {
			ss += (x[c] - mean) * (x[c] - mean)
		}
		inv := 0.0
		if sd := math.Sqrt(ss / n); sd >= 1e-9 {
			inv = 1 / sd
		}
		for _, x := range xs {
			x[c] = (x[c] - mean) * inv
		}
	}
}
