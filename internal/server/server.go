// Package server exposes an OpenBI Engine as an HTTP/JSON advice service —
// the network front end of the paper's advisor: non-expert BI users POST a
// data-quality profile (or a raw CSV) and get back "the best option is
// ALGORITHM X" as structured JSON.
//
// The server is built around the engine's snapshot architecture:
//
//   - Every request pins exactly one immutable kb.Snapshot, so reads are
//     lock-free and a response is always internally consistent, even while
//     a POST /v1/kb/reload atomically swaps in a new knowledge base.
//   - Concurrent POST /v1/advise calls are micro-batched: requests that
//     arrive within one batching window are scored together in a single
//     pass over one pinned snapshot, and duplicate profiles inside a batch
//     are computed once.
//   - An LRU cache keyed by (KB generation, quantized severity vector)
//     short-circuits repeated queries with the exact serialized response.
//   - Admission control (WithMaxInflight / WithQueueDepth) bounds the
//     heavy endpoints: excess load is shed fast with 429 overloaded +
//     Retry-After instead of queuing unboundedly, while /healthz and
//     /v1/metrics stay responsive so an overloaded server remains
//     observable. Per-endpoint log-bucketed latency histograms back the
//     p50/p99 estimates in GET /v1/metrics.
//
// Endpoints:
//
//	POST /v1/advise     {"severities": [...]} or {"profile": {"label-noise": 0.2}} → ranked advice
//	POST /v1/profile    CSV body (+ ?class=col) → data-quality profile
//	GET  /v1/kb         knowledge-base snapshot metadata
//	POST /v1/kb/reload  atomically load a new KB from disk, no dropped requests
//	GET  /v1/metrics    counters + admission gauges + per-endpoint latency quantiles (JSON)
//	GET  /healthz       liveness + readiness
//
// Typed pipeline errors (internal/oberr) map onto HTTP statuses; see
// httperr.go for the table.
package server

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"openbi/internal/core"
	"openbi/internal/hist"
	"openbi/internal/kb"
	"openbi/internal/oberr"
	"openbi/internal/provenance"
)

// kbState is one published knowledge-base generation: the pinned snapshot
// plus the serving metadata that travels with it. A kbState is immutable;
// reloads publish a fresh one through an atomic pointer.
type kbState struct {
	snap     *kb.Snapshot
	gen      uint64
	loadedAt time.Time
	source   string
	// manifest is the verified provenance manifest of the serving KB, nil
	// when the generation was published without one (engine-sourced
	// snapshots, unverified reloads). Chained reloads compare the incoming
	// manifest's lineage fields against it.
	manifest *provenance.Manifest
}

// Server serves advice over HTTP from an Engine. Create one with New; a
// Server is an http.Handler, so it can be mounted into a larger mux, driven
// by httptest, or run directly with ListenAndServe. Close releases the
// batching goroutine when the server is not run via ListenAndServe/Serve.
type Server struct {
	engine *core.Engine
	mux    *http.ServeMux

	state    atomic.Pointer[kbState]
	reloadMu sync.Mutex // serializes /v1/kb/reload swaps

	cache   *adviceCache
	metrics *metrics

	// admission gates the heavy endpoints (nil = unbounded, the default);
	// latency holds one log-bucketed histogram per endpoint, fed by the
	// instrument middleware and read by GET /v1/metrics.
	admission *admission
	latency   map[string]*hist.Histogram

	kbPath       string
	reqTimeout   time.Duration
	drainTimeout time.Duration
	maxBodyBytes int64

	manifestRequired bool
	manifestKey      ed25519.PublicKey

	batchWindow time.Duration
	batchMax    int
	jobs        chan *adviseJob
	done        chan struct{}
	closeOnce   sync.Once

	now func() time.Time
}

// Option configures a Server at construction time.
type Option func(*config)

type config struct {
	kbPath       string
	cacheSize    int
	batchWindow  time.Duration
	batchMax     int
	reqTimeout   time.Duration
	drainTimeout time.Duration
	maxBodyBytes int64
	maxInflight  int
	queueDepth   int
	now          func() time.Time

	manifestRequired bool
	manifestKey      ed25519.PublicKey
	manifest         *provenance.Manifest
}

// WithKBPath sets the default knowledge-base file POST /v1/kb/reload reads
// when the request body names no path.
func WithKBPath(path string) Option {
	return func(c *config) { c.kbPath = path }
}

// WithCacheSize bounds the advice LRU cache (entries). 0 disables caching;
// the default is 1024.
func WithCacheSize(n int) Option {
	return func(c *config) { c.cacheSize = n }
}

// WithBatchWindow sets how long the dispatcher waits to coalesce concurrent
// advise calls into one scoring pass (default 2ms). 0 batches only what is
// already queued, adding no latency.
func WithBatchWindow(d time.Duration) Option {
	return func(c *config) { c.batchWindow = d }
}

// WithBatchMaxSize caps one scoring batch (default 64).
func WithBatchMaxSize(n int) Option {
	return func(c *config) { c.batchMax = n }
}

// WithRequestTimeout bounds how long an advise call may wait for its
// scoring batch (default 10s).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.reqTimeout = d }
}

// WithDrainTimeout bounds how long graceful shutdown waits for in-flight
// requests (default 10s).
func WithDrainTimeout(d time.Duration) Option {
	return func(c *config) { c.drainTimeout = d }
}

// WithMaxBodyBytes caps request body sizes (default 32 MiB, sized for CSV
// uploads to /v1/profile).
func WithMaxBodyBytes(n int64) Option {
	return func(c *config) { c.maxBodyBytes = n }
}

// WithMaxInflight bounds how many heavy requests (advise, profile,
// lod/profile) execute concurrently; excess requests wait in a bounded
// queue (WithQueueDepth) and anything past that is shed immediately with
// 429 overloaded + Retry-After. 0 (the default) disables admission
// control. Cheap control-plane endpoints (/healthz, /v1/metrics, /v1/kb,
// reload) bypass the gate so the server stays observable and steerable
// under overload.
func WithMaxInflight(n int) Option {
	return func(c *config) { c.maxInflight = n }
}

// WithQueueDepth bounds how many requests may wait for an inflight slot
// before the server sheds load (default: equal to WithMaxInflight; 0
// sheds the moment all slots are busy). Requires WithMaxInflight > 0.
// The depth is the overload latency contract: an admitted request waits
// at most ~queueDepth/maxInflight service times, independent of offered
// load.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithManifestRequired refuses any POST /v1/kb/reload that cannot present
// a verifiable provenance manifest: the manifest must exist (shard reloads
// must name one explicitly), verify against the artifact, satisfy the
// signature policy, and continue the currently served manifest's lineage
// (dataset hash, grid fingerprint). Violations are 422 manifest_mismatch;
// a valid manifest hot-swaps normally.
func WithManifestRequired() Option {
	return func(c *config) { c.manifestRequired = true }
}

// WithManifestKey pins the ed25519 public key reload manifests must be
// signed with. With a key pinned, unsigned manifests (and manifests signed
// by any other key) are refused even when WithManifestRequired is off —
// whenever a manifest is presented, it must carry this key's signature.
func WithManifestKey(pub ed25519.PublicKey) Option {
	return func(c *config) { c.manifestKey = pub }
}

// WithManifest attaches the verified provenance manifest of the initially
// served knowledge base, seeding the reload chain: subsequent reloads must
// agree with its dataset hash and grid fingerprint. GET /v1/kb reports its
// root and signer. The caller is responsible for having verified it
// (cmd/openbi's serve does so at startup).
func WithManifest(m *provenance.Manifest) Option {
	return func(c *config) { c.manifest = m }
}

// New builds a Server around an engine. The engine's currently published
// snapshot becomes generation 0; subsequent /v1/kb/reload calls bump the
// generation. Invalid options fail eagerly with oberr.ErrBadConfig.
func New(engine *core.Engine, opts ...Option) (*Server, error) {
	cfg := config{
		cacheSize:    1024,
		batchWindow:  2 * time.Millisecond,
		batchMax:     64,
		reqTimeout:   10 * time.Second,
		drainTimeout: 10 * time.Second,
		maxBodyBytes: 32 << 20,
		queueDepth:   -1, // sentinel: default to maxInflight when admission is on
		now:          time.Now,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if engine == nil {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{Field: "engine", Reason: "must not be nil"})
	}
	if cfg.cacheSize < 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithCacheSize", Reason: fmt.Sprintf("need >= 0, got %d", cfg.cacheSize)})
	}
	if cfg.batchMax < 1 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithBatchMaxSize", Reason: fmt.Sprintf("need >= 1, got %d", cfg.batchMax)})
	}
	if cfg.batchWindow < 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithBatchWindow", Reason: "must not be negative"})
	}
	if cfg.reqTimeout <= 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithRequestTimeout", Reason: "must be positive"})
	}
	if cfg.drainTimeout <= 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithDrainTimeout", Reason: "must be positive"})
	}
	if cfg.maxBodyBytes <= 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithMaxBodyBytes", Reason: "must be positive"})
	}
	if cfg.maxInflight < 0 {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithMaxInflight", Reason: fmt.Sprintf("need >= 0, got %d", cfg.maxInflight)})
	}
	if cfg.queueDepth != -1 {
		if cfg.maxInflight == 0 {
			return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
				Field: "WithQueueDepth", Reason: "requires WithMaxInflight > 0"})
		}
		if cfg.queueDepth < 0 {
			return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
				Field: "WithQueueDepth", Reason: fmt.Sprintf("need >= 0, got %d", cfg.queueDepth)})
		}
	} else {
		cfg.queueDepth = cfg.maxInflight
	}
	if cfg.manifestKey != nil && len(cfg.manifestKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("server: %w", &oberr.ConfigError{
			Field: "WithManifestKey", Reason: fmt.Sprintf("public key has %d bytes, want %d", len(cfg.manifestKey), ed25519.PublicKeySize)})
	}
	s := &Server{
		engine:       engine,
		cache:        newAdviceCache(cfg.cacheSize),
		metrics:      &metrics{},
		kbPath:       cfg.kbPath,
		reqTimeout:   cfg.reqTimeout,
		drainTimeout: cfg.drainTimeout,
		maxBodyBytes: cfg.maxBodyBytes,

		manifestRequired: cfg.manifestRequired,
		manifestKey:      cfg.manifestKey,
		batchWindow:      cfg.batchWindow,
		batchMax:         cfg.batchMax,
		jobs:             make(chan *adviseJob, 4*cfg.batchMax),
		done:             make(chan struct{}),
		now:              cfg.now,
		admission:        newAdmission(cfg.maxInflight, cfg.queueDepth, cfg.reqTimeout),
		latency:          make(map[string]*hist.Histogram),
	}
	s.state.Store(&kbState{snap: engine.KB(), gen: 0, loadedAt: s.now(), source: "engine", manifest: cfg.manifest})
	s.mux = s.routes()
	go s.dispatch()
	return s, nil
}

// ServeHTTP dispatches to the server's routes; Server therefore plugs into
// any http.Server or test recorder directly. The request timeout is
// applied where a handler can actually block (the advise batch wait), not
// here — wrapping every request in a timer context would tax the cache-hit
// fast path with allocations it never needs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Refresh republishes the engine's current KB snapshot as a new serving
// generation. Embedders that populate the engine programmatically —
// RunExperiments or LoadKB from an in-memory source — call this to expose
// the result, since POST /v1/kb/reload only reads files from disk. Safe to
// call concurrently with requests and reloads.
func (s *Server) Refresh() {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev := s.state.Load()
	s.state.Store(&kbState{snap: s.engine.KB(), gen: prev.gen + 1, loadedAt: s.now(), source: "engine"})
	s.metrics.reloads.Add(1)
}

// Close stops the batching dispatcher. Advise requests after Close fail
// with 503 server_closed; other endpoints keep working (they do not pass
// through the batcher). Close is idempotent.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.done) }) }

// Serve runs an http.Server over ln until ctx is canceled, then drains
// in-flight requests for up to the drain timeout before returning. A clean
// drain returns nil even when triggered by ctx cancellation (SIGINT is a
// normal way to stop a server, not an error).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
		defer cancel()
		err := hs.Shutdown(drainCtx)
		s.Close()
		return err
	}
}

// ListenAndServe is Serve on a fresh TCP listener bound to addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ctx, ln)
}
