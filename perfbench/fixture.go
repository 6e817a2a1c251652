package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
	"leapme/internal/mathx"
	"leapme/internal/serve"
)

// fixtureSeed fixes the system under test: the embedding corpus, the
// dataset the served model is trained on, and that model's weights. The
// workload seed only draws inputs, which never overlap this dataset.
const fixtureSeed = 1

// scratchDir holds the files a run writes (model files, trace spans),
// relative to the checkout root the benchmark runs from.
const scratchDir = ".bench_build/run"

// trainStore fits the GloVe embedding store with the library defaults
// over the cameras domain corpus.
func trainStore() (*embedding.Store, error) {
	corpus := domain.Corpus([]*domain.Category{domain.Cameras()}, domain.DefaultCorpusConfig())
	return embedding.TrainGloVe(corpus, embedding.DefaultGloVeConfig())
}

// camerasLite generates one cameras-lite dataset.
func camerasLite(seed int64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Lite(dataset.CamerasConfig(seed)))
}

// inputSeed maps the workload seed and an input index to a generator
// seed that never equals fixtureSeed, so inputs are always held out.
func inputSeed(seed int64, i int) int64 { return 1_000_003 + seed*1_009 + int64(i) }

// trainFixtureModel trains the served model on cameras-lite at
// fixtureSeed with the paper's options on the flat training kernel
// (Workers = 1), whose bytes the repository's golden gate pins; a change
// to the default (Workers = 0) training path therefore leaves served
// scores unchanged.
func trainFixtureModel(ctx context.Context, store *embedding.Store) ([]byte, error) {
	d, err := camerasLite(fixtureSeed)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(fixtureSeed)
	opts.Workers = 1
	m, err := core.NewMatcher(store, opts)
	if err != nil {
		return nil, err
	}
	if err := m.ComputeFeatures(ctx, d); err != nil {
		return nil, err
	}
	if _, err := m.Train(ctx, core.TrainingPairs(d.Props, 2, mathx.NewRand(fixtureSeed))); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeModelFile stores model bytes under scratchDir for serve.New.
func writeModelFile(model []byte) (string, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(scratchDir, "model-*.leapme")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(model); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// loadMatcher reads model bytes into a matcher over store, the library
// path the served scores are checked against.
func loadMatcher(store *embedding.Store, model []byte) (*core.Matcher, error) {
	m, err := core.NewMatcher(store, core.DefaultOptions(fixtureSeed))
	if err != nil {
		return nil, err
	}
	if err := m.ReadModel(bytes.NewReader(model)); err != nil {
		return nil, err
	}
	return m, nil
}

// --- wire schema ---

// The /v1 request and response bodies, mirrored field for field from the
// server's handlers (whose types are unexported), so the traced run's
// decode and encode replays cost what the handler's own do.

type propSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values,omitempty"`
}

type pairSpec struct {
	A propSpec `json:"a"`
	B propSpec `json:"b"`
}

type matchRequest struct {
	Model     string     `json:"model,omitempty"`
	Threshold *float64   `json:"threshold,omitempty"`
	Pairs     []pairSpec `json:"pairs"`
}

type pairResult struct {
	Score float64 `json:"score"`
	Match bool    `json:"match"`
	Error string  `json:"error,omitempty"`
}

type cacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

type matchResponse struct {
	Model   string       `json:"model"`
	CRC     string       `json:"model_crc"`
	Results []pairResult `json:"results"`
	Cache   cacheStats   `json:"cache"`
}

type matchAllRequest struct {
	Model     string                `json:"model,omitempty"`
	Threshold *float64              `json:"threshold,omitempty"`
	Sources   map[string][]propSpec `json:"sources"`
	Blocking  string                `json:"blocking,omitempty"`
	Top       int                   `json:"top,omitempty"`
}

type matchAllMatch struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Score float64 `json:"score"`
}

type matchAllResponse struct {
	Model      string          `json:"model"`
	Properties int             `json:"properties"`
	Candidates int             `json:"candidates"`
	Scored     int             `json:"scored"`
	Failures   int             `json:"failures"`
	Matches    []matchAllMatch `json:"matches"`
	Cache      cacheStats      `json:"cache"`
}

// --- the server under test ---

// server is an in-process leapme server on a loopback listener.
type server struct {
	srv       *serve.Server
	http      *http.Server
	done      chan struct{}
	url       string
	modelPath string
	client    *http.Client
}

// newServe loads a model file into a server with the default
// configuration.
func newServe(store *embedding.Store, modelPath string) (*serve.Server, error) {
	return serve.New(serve.Config{
		Store:  store,
		Models: []serve.ModelSource{{Name: "default", Path: modelPath}},
	})
}

// serveModel writes model to a file under scratchDir, loads it into
// serve.New with the server's default configuration and serves it on a
// loopback listener. wrap, when non-nil, wraps the handler (the traced
// run's timing shim). clients bounds the HTTP client's connections.
func serveModel(store *embedding.Store, model []byte, clients int, wrap func(http.Handler) http.Handler) (*server, error) {
	modelPath, err := writeModelFile(model)
	if err != nil {
		return nil, err
	}
	srv, err := newServe(store, modelPath)
	if err != nil {
		os.Remove(modelPath)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.Remove(modelPath)
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{
		srv:       srv,
		http:      &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done:      make(chan struct{}),
		url:       "http://" + ln.Addr().String(),
		modelPath: modelPath,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
				MaxConnsPerHost:     clients,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// post sends one body and reads the whole answer into buf, returning the
// status and the body bytes. A non-zero op names the client operation's
// span for the traced run's handler shim.
func (s *server) post(path string, body []byte, op int64, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// model returns the active served model.
func (s *server) model() *serve.Model { return s.srv.Registry().Active() }

// close stops the listener, drains the scoring pipeline, waits for the
// serving goroutine and removes the model file.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
	if rmErr := os.Remove(s.modelPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
		err = rmErr
	}
	return err
}

// serveCounters snapshots a server's batcher and feature-cache counters.
type serveCounters struct{ batches, batchPairs, hits, misses int64 }

func countersOf(srv *serve.Server) serveCounters {
	met := srv.Metrics()
	hits, misses, _ := srv.Registry().Active().CacheStats()
	return serveCounters{met.Batches.Load(), met.BatchPairs.Load(), hits, misses}
}

// since returns the mean pairs per micro-batch and the feature-cache hit
// ratio between start and c (0 where nothing happened).
func (c serveCounters) since(start serveCounters) (batchMean, hitRatio float64) {
	if b := c.batches - start.batches; b > 0 {
		batchMean = float64(c.batchPairs-start.batchPairs) / float64(b)
	}
	hits, misses := c.hits-start.hits, c.misses-start.misses
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	return batchMean, hitRatio
}

// writeSpans stores the traced run's spans as one JSON document.
func writeSpans(name string, data []byte) (string, error) {
	dir := filepath.Join(scratchDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// decodeStrict decodes a wire body as the server's handlers do, rejecting
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
