package main

// server.go builds the in-process server each workload drives: the same
// httpapi.Server, registry and engine wiring cmd/speakql-server does, with
// the flags a workload overrides, served through Handler() with no
// listening socket.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/httpapi"
	"speakql/internal/registry"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// speakql-server's defaults for the flags no workload overrides.
const (
	defaultMaxInflight = 64
	defaultMaxQueue    = 128
	defaultSessionTTL  = 30 * time.Minute
	defaultCacheSize   = 1024
	defaultMemoSize    = 4096
	defaultMaxTenants  = 64
)

// serverConfig is the subset of speakql-server flags the workloads set.
type serverConfig struct {
	scale      string // -scale: test, default or paper
	cacheSize  int    // -cachesize
	memoSize   int    // -memo-size
	maxTenants int    // -max-tenants
	tenantDir  string // -tenant-dir
	validate   core.ValidationMode
	timeout    time.Duration // -timeout; 0 keeps httpapi.DefaultRequestTimeout
}

// server is one built server plus the pieces the traced replays reach into.
type server struct {
	srv    *httpapi.Server
	h      http.Handler
	eng    *core.Engine // seed engine
	reg    *registry.Registry
	db     *sqlengine.Database
	gcfg   grammar.GenConfig
	vcfg   core.ValidationConfig
	shared registry.Shared
	dir    string
}

// grammarFor maps a -scale name to its grammar preset.
func grammarFor(scale string) grammar.GenConfig {
	switch scale {
	case "paper":
		return speakql.PaperGrammar()
	case "default":
		return speakql.DefaultGrammar()
	default:
		return speakql.TestGrammar()
	}
}

// newServer wires a server the way speakql-server's main does with -db
// employees, serial search and the given flags.
func newServer(cfg serverConfig) (*server, error) {
	db := dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	gcfg := grammarFor(cfg.scale)
	eng, err := speakql.NewEngine(speakql.Config{
		Grammar: gcfg, Search: trieindex.Options{}, Catalog: speakql.CatalogOf(db),
		StructureCacheSize: cfg.cacheSize,
	})
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	vcfg := core.ValidationConfig{
		Mode: cfg.validate, MaxRows: core.DefaultValidateMaxRows, Timeout: core.DefaultValidateTimeout,
	}
	if cfg.validate != core.ValidationOff {
		eng.SetValidation(vcfg, db)
	}
	shared := registry.Shared{
		Structure: eng.StructureComponent(), Cache: eng.SearchCache(),
		TopKLiterals: 5, Validation: vcfg,
	}
	reg, err := registry.New(registry.Config{Shared: shared, MaxLive: cfg.maxTenants, Dir: cfg.tenantDir})
	if err != nil {
		return nil, fmt.Errorf("build registry: %w", err)
	}
	reg.SetSeed("default", eng, eng.Catalog())
	srv := httpapi.New(eng, db)
	srv.SetRegistry(reg)
	timeout := httpapi.DefaultRequestTimeout
	if cfg.timeout > 0 {
		timeout = cfg.timeout
	}
	srv.SetRequestTimeout(timeout)
	srv.SetAdmission(defaultMaxInflight, defaultMaxQueue)
	srv.SetSessionTTL(defaultSessionTTL)
	srv.SetCorrectionMemo(cfg.memoSize)
	return &server{
		srv: srv, h: srv.Handler(), eng: eng, reg: reg, db: db, gcfg: gcfg,
		vcfg: vcfg, shared: shared, dir: cfg.tenantDir,
	}, nil
}

// close stops the server's session sweeper and event feeds.
func (s *server) close() { s.srv.Close() }

// do sends one request through the handler and returns status and body.
func (s *server) do(method, target string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// stats reads GET /api/stats.
func (s *server) stats() (apiStats, error) {
	code, body := s.do(http.MethodGet, "/api/stats", nil)
	var st apiStats
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /api/stats: status %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /api/stats: %w", err)
	}
	return st, nil
}

// apiStats is the part of GET /api/stats the benchmark reads: the
// process-wide counters, whose deltas over a phase are its counts, and the
// number of resident sessions.
type apiStats struct {
	Counters map[string]int64 `json:"counters"`
	Sessions int              `json:"sessions"`
}

// delta returns after − before for one counter.
func delta(before, after apiStats, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// twinComponent is a structure component over the server's index with no
// search cache, so a replayed call is never answered from a cache a served
// request filled.
func (s *server) twinComponent() *structure.Component {
	return structure.NewFromIndex(s.eng.StructureComponent().Index(), trieindex.Options{}, s.gcfg)
}
