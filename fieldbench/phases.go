package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/triples"
)

// lateLimit is how far behind schedule the open-loop generator may dispatch
// its 99th-percentile request before phase (b) is reported as invalid: past
// it, the measured latencies describe the generator, not the system.
const lateLimit = 25 * time.Millisecond

// serving is the fleet under load across a run. It starts once the first
// training cycle has produced a bundle and serves one round after each
// cycle, so the serving rounds are spread over the run as the cycles are,
// and a change in the host's speed during a run moves one round, not the
// result. Each load step sends its own freshly generated held-out pages and
// is verified right after it, outside the timed window; the pages and
// response bodies are then dropped, so none of them are live while the next
// cycle trains.
type serving struct {
	span       *obs.Span
	x          *extract.Extractor
	fp         string
	bundlePath string
	f          *fleetProc
	l          *loader
	plan       phasePlan
	byName     map[string][]*phaseResult
	steps      int         // load steps so far; each draws its pages from its own seeds
	step       []*response // the current step's responses
	verified   int
	s503, s4xx int
	warmup     [][]byte         // the warm-up pages, kept for serveLayers
	replies    []serve.Response // single-page replies, kept for serveLayers
}

// startServing starts the fleet on the bootstrap bundle and warms it up;
// set-up time is the corpus set-up plus this, the bundle loads included.
func (b *bench) startServing(bundlePath string) (*serving, error) {
	x, err := extract.Open(bundlePath, extract.Options{})
	if err != nil {
		return nil, err
	}
	s := &serving{span: b.root.Child("serve"), x: x, fp: x.Fingerprint(), bundlePath: bundlePath,
		l: newLoader(), plan: b.phasePlan(), byName: map[string][]*phaseResult{}}
	warmup, err := b.heldOut(0, s.plan.pages["warmup"])
	if err != nil {
		x.Close()
		return nil, err
	}
	// The router logs every request at info level, as paerouter does; the
	// lines are formatted as there but discarded, so a run's stderr stays
	// readable.
	began := time.Now()
	if s.f, err = startFleet(bundlePath, slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		x.Close()
		return nil, err
	}
	if err := s.f.waitHealthy(s.l.client, 10*time.Second); err != nil {
		s.close()
		return nil, err
	}
	// The warm-up sends a fixed number of pages, so every run warms the same.
	var fleetSetup float64
	b.runPhases(s, warmup, func() {
		b.runPhase(s, "warmup", func() *phaseResult { return s.l.closed(s.f.url, "warmup", 1, time.Minute) })
		fleetSetup = time.Since(began).Seconds()
	})
	b.e2e["setup_s"] = metric{b.corpusSetup + fleetSetup, "s"}
	b.info["fleet_setup_s"] = fleetSetup
	s.warmup = warmup
	return s, nil
}

// close stops the fleet and releases the in-process extractor; both may
// already be stopped.
func (s *serving) close() {
	s.f.stop()
	s.l.client.CloseIdleConnections()
	s.x.Close()
	s.span.End(nil)
}

// runPhases loads pages into the load generator, runs the phases in fn on
// them, then verifies every response and drops the response bodies.
func (b *bench) runPhases(s *serving, pages [][]byte, fn func()) {
	s.l.load(pages)
	s.step = nil
	fn()
	resps := s.step
	if b.o.tamper != nil {
		b.o.tamper(resps)
	}
	b.verifyResponses(s.x, s.fp, pages, resps)
	for _, r := range resps {
		switch {
		case r.status == http.StatusServiceUnavailable:
			s.s503++
		case r.status >= 400 && r.status < 500:
			s.s4xx++
		}
		if r.ok() && r.n == 1 && len(s.replies) < warmupPages {
			var got serve.Response
			if json.Unmarshal(r.body, &got) == nil {
				s.replies = append(s.replies, got)
			}
		}
		r.body = nil
	}
	s.verified += len(resps)
	s.steps++
}

// runPhase runs one load phase on its own segment of the loaded pages and
// counts its requests.
func (b *bench) runPhase(s *serving, name string, fn func() *phaseResult) {
	s.l.segment(s.plan.pages[name])
	if b.o.onPhase != nil {
		b.o.onPhase(name, s.f)
	}
	var p *phaseResult
	timed(s.span, "loadgen."+name, func() error { p = fn(); return nil })
	s.byName[name] = append(s.byName[name], p)
	s.step = append(s.step, p.resps...)
	if name == "warmup" {
		return
	}
	if p.short {
		b.info[name+"_ended_early"] = "held-out pool exhausted"
	}
	for _, r := range p.resps {
		b.attempted++
		if !r.ok() {
			b.failed++
		}
	}
}

// serveRound runs phases (a) closed single-page and (c) closed batch, with
// (b) open single-page between them in a traced run, which reports its
// latencies.
func (b *bench) serveRound(s *serving) error {
	pages, err := b.heldOut(s.steps, s.plan.roundPages())
	if err != nil {
		return err
	}
	b.runPhases(s, pages, func() {
		b.runPhase(s, "single", func() *phaseResult { return s.l.closed(s.f.url, "single", 1, s.plan.single) })
		if b.o.trace {
			b.runPhase(s, "open", func() *phaseResult { return s.l.open(s.f.url, "open", b.sp.openRate, s.plan.open) })
		}
		b.runPhase(s, "batch", func() *phaseResult { return s.l.closed(s.f.url, "batch", batchSize, s.plan.batch) })
	})
	return nil
}

// finishServing runs a traced run's direct loop, stops the fleet and
// reports the serving metrics.
func (b *bench) finishServing(s *serving) error {
	defer s.close()
	byName := s.byName
	if b.o.trace {
		pages, err := b.heldOut(s.steps, s.plan.pages["direct"])
		if err != nil {
			return err
		}
		b.runPhases(s, pages, func() {
			b.runPhase(s, "direct", func() *phaseResult { return s.l.closed(s.f.backends[0].url, "direct", 1, s.plan.direct) })
		})
	}
	b.layer["fleet.retries"] = float64(s.f.routerRec.Counter("fleet.retries"))
	b.layer["fleet.shed"] = float64(s.f.routerRec.Counter("fleet.shed_full") + s.f.routerRec.Counter("fleet.shed_batch"))
	b.layer["serve.status_503"] = float64(s.s503)
	b.layer["serve.status_4xx"] = float64(s.s4xx)
	b.info["verified_responses"] = s.verified

	rate, p50, p99, n := windowStats(byName["single"], b.sp.pageRPS)
	b.samples["page"] = n
	b.e2e["page_rps"] = metric{rate, "req/s"}
	b.e2e["page_p50_ms"] = metric{p50, "ms"}
	b.layer["page_p99_ms"] = p99
	rate, p50, p99, n = windowStats(byName["batch"], b.sp.batchPPS/batchSize)
	b.samples["batch"] = n
	b.e2e["batch_pages_per_s"] = metric{rate, "pages/s"}
	b.e2e["batch_p50_ms"] = metric{p50, "ms"}
	b.layer["batch_p99_ms"] = p99
	if b.o.trace {
		b.openLayers(byName["open"])
		_, p50, p99, n := windowStats(byName["direct"], b.sp.pageRPS)
		b.samples["direct"] = n
		b.layer["serve.direct_p50_ms"] = p50
		b.layer["serve.direct_p99_ms"] = p99
		b.layer["fleet.hop_ms"] = b.e2e["page_p50_ms"].Value - b.layer["serve.direct_p50_ms"]
		if err := b.serveLayers(s.x, s.bundlePath, s.warmup, s.replies); err != nil {
			return err
		}
	}
	return nil
}

// openLayers reports phase (b)'s latencies and how late its generator
// dispatched requests, and fails the run when the generator fell so far
// behind its schedule that the latencies describe it, not the system.
func (b *bench) openLayers(ps []*phaseResult) {
	_, p50, p99, n := windowStats(ps, b.sp.openRate)
	b.samples["open"] = n
	b.layer["open_p50_ms"] = p50
	b.layer["open_p99_ms"] = p99
	var lates []time.Duration
	for _, p := range ps {
		for _, r := range p.resps {
			lates = append(lates, r.late)
		}
	}
	lateP99 := quantile(millis(lates), 0.99)
	b.layer["loadgen.late_p99_ms"] = lateP99
	b.info["open_rate_rps"] = b.sp.openRate
	if lateP99 > float64(lateLimit)/float64(time.Millisecond) {
		b.problem("phase (b) invalid: the open-loop generator dispatched its p99 request %.2f ms behind schedule (limit %s)", lateP99, lateLimit)
	}
}

// verifyResponses checks every successful response against in-process
// extraction of the same pages with the same bundle, and its X-Pae-Bundle
// header against the bundle fingerprint. Batches are checked against
// ExtractBatch, whose corpus-wide veto differs from per-page extraction.
func (b *bench) verifyResponses(x *extract.Extractor, fp string, bodies [][]byte, resps []*response) {
	var mu sync.Mutex
	bad := 0
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if bad < 5 {
			b.problem(format, args...)
		}
		bad++
	}
	var next int
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(resps) {
					return
				}
				r := resps[i]
				if !r.ok() {
					continue
				}
				if r.bundle != fp {
					report("%s response for page %d carries X-Pae-Bundle %.12s, bundle is %.12s", r.phase, r.first, r.bundle, fp)
					continue
				}
				var got serve.Response
				if err := json.Unmarshal(r.body, &got); err != nil {
					report("%s response for page %d is not a valid response: %v", r.phase, r.first, err)
					continue
				}
				want, err := expected(x, bodies[r.first:r.first+r.n])
				if err != nil {
					report("in-process extraction of page %d failed: %v", r.first, err)
					continue
				}
				if triplesDigest(got.Triples) != triplesDigest(want) {
					report("%s response for pages %d..%d: triples digest differs from in-process extraction (%d vs %d triples)",
						r.phase, r.first, r.first+r.n-1, len(got.Triples), len(want))
				}
			}
		}()
	}
	wg.Wait()
	if bad > 5 {
		b.problem("%d responses failed verification in total", bad)
	}
}

func decodeDocs(bodies [][]byte) ([]seed.Document, error) {
	docs := make([]seed.Document, len(bodies))
	for i, body := range bodies {
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		docs[i] = seed.Document{ID: req.ID, HTML: req.HTML}
	}
	return docs, nil
}

// expected is what the server should answer for these pages.
func expected(x *extract.Extractor, bodies [][]byte) ([]triples.Triple, error) {
	docs, err := decodeDocs(bodies)
	if err != nil {
		return nil, err
	}
	if len(docs) == 1 {
		return x.ExtractPage(context.Background(), docs[0].ID, docs[0].HTML)
	}
	return x.ExtractBatch(context.Background(), docs)
}
