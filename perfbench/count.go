package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcf0"
	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// The count workload: a seeded suite alternating planted 3-CNFs (counted
// with ApproxMC over the CDCL+XOR oracle, approxmc's default) and random
// DNFs (counted with the FindMin FPRAS), at the paper's ε = 0.8, δ = 0.2.
// The sizes give both kinds a single-threaded per-call cost of 100-135 ms
// on a 2-core VM, so the median call does not sit between two modes.
const (
	cnfVars, cnfClauses         = 14, 24
	dnfVars, dnfTerms, dnfWidth = 16, 6, 6
	countRate                   = 16 // nominal calls per second
	countEpsilon                = 0.8
	// countCallers goroutines count closed loop, one formula each at a
	// time, with countParallelism workers per count: both cores stay
	// busy without a count ever waiting on a parked worker.
	countCallers, countParallelism = 2, 1
	countSuiteSalt, countWarmSalt  = 3, 4
)

// countCase is one formula of the suite, in the DIMACS literal
// convention the public API takes.
type countCase struct {
	cnf   bool
	n     int
	lits  [][]int
	seed  uint64 // Config.Seed of its count
	truth float64
}

func dimacs(ls []formula.Lit) []int {
	out := make([]int, len(ls))
	for i, l := range ls {
		out[i] = l.Var + 1
		if l.Neg {
			out[i] = -out[i]
		}
	}
	return out
}

// buildSuite generates n formulas from seed, CNF and DNF alternating.
func buildSuite(seed uint64, n int) []countCase {
	rng := stats.NewRNG(seed)
	suite := make([]countCase, n)
	for i := range suite {
		c := countCase{cnf: i%2 == 0, seed: rng.Uint64() | 1}
		if c.cnf {
			f, _ := formula.PlantedKCNF(cnfVars, cnfClauses, 3, rng)
			c.n = cnfVars
			for _, cl := range f.Clauses {
				c.lits = append(c.lits, dimacs(cl))
			}
		} else {
			f := formula.RandomDNF(dnfVars, dnfTerms, dnfWidth, rng)
			c.n = dnfVars
			for _, t := range f.Terms {
				c.lits = append(c.lits, dimacs(t))
			}
		}
		suite[i] = c
	}
	return suite
}

// toLits converts DIMACS literals back to the formula package's form.
func toLits(raw []int) []formula.Lit {
	out := make([]formula.Lit, len(raw))
	for i, v := range raw {
		if v < 0 {
			out[i] = formula.Lit{Var: -v - 1, Neg: true}
		} else {
			out[i] = formula.Lit{Var: v - 1}
		}
	}
	return out
}

func (c countCase) cnfFormula() *formula.CNF {
	f := formula.NewCNF(c.n)
	for _, cl := range c.lits {
		f.AddClause(formula.Clause(toLits(cl)))
	}
	return f
}

func (c countCase) dnfFormula() *formula.DNF {
	f := formula.NewDNF(c.n)
	for _, t := range c.lits {
		f.AddTerm(formula.Term(toLits(t)))
	}
	return f
}

// countResult is what one count returned.
type countResult struct {
	est     float64
	queries int64
	solver  mcf0.SolverStats
}

// countPublic counts through the public API.
func countPublic(c countCase) (countResult, error) {
	cfg := mcf0.Config{Seed: c.seed, Parallelism: countParallelism}
	var res mcf0.CountResult
	var err error
	if c.cnf {
		res, err = mcf0.CountCNFClauses(c.n, c.lits, mcf0.AlgorithmBucketing, cfg)
	} else {
		res, err = mcf0.CountDNFTerms(c.n, c.lits, mcf0.AlgorithmMinimum, cfg)
	}
	return countResult{est: res.Estimate, queries: res.OracleQueries, solver: res.Solver}, err
}

// timedSource is an oracle.Source that records a span around every
// Enumerate call; its forks do the same, so parallel trials are traced.
type timedSource struct {
	inner  oracle.Source
	tr     *tracer
	parent uint64
}

func (s *timedSource) NVars() int     { return s.inner.NVars() }
func (s *timedSource) Queries() int64 { return s.inner.Queries() }

func (s *timedSource) Enumerate(cons *gf2.System, limit int, visit func(bitvec.BitVec) bool) int {
	id, start := s.tr.newID(), s.tr.now()
	n := s.inner.Enumerate(cons, limit, visit)
	s.tr.end("oracle.enumerate", id, s.parent, s.parent, start)
	return n
}

// Fork forks the inner source, which must be oracle.Forkable (the CNF
// source is).
func (s *timedSource) Fork() oracle.Source {
	return &timedSource{inner: s.inner.(oracle.Forkable).Fork(), tr: s.tr, parent: s.parent}
}

// countTraced does what countPublic does, through the counting package
// directly, so the oracle and FindMin calls can be wrapped in spans. The
// caller checks that the results match countPublic's exactly.
func countTraced(c countCase, tr *tracer) countResult {
	opts := counting.Options{RNG: stats.NewRNG(c.seed), Parallelism: countParallelism}
	id, start := tr.newID(), tr.now()
	var out countResult
	if c.cnf {
		src := oracle.NewCNFSource(c.cnfFormula())
		res := counting.ApproxMC(&timedSource{inner: src, tr: tr, parent: id}, opts)
		st := src.SolverStats()
		out = countResult{est: res.Estimate, queries: res.OracleQueries, solver: mcf0.SolverStats{
			Decisions: st.Decisions, Propagations: st.Propagations, Conflicts: st.Conflicts,
			Learned: st.Learned, Deleted: st.Deleted, Restarts: st.Restarts,
			LearnedLits: st.LearnedLits, MinimizedLits: st.MinimizedLits,
		}}
		tr.end("mcf0.count_cnf", id, 0, id, start)
		return out
	}
	d := c.dnfFormula()
	res := counting.ApproxModelCountMin(d.N, func(h *hash.Linear, p int) []bitvec.BitVec {
		fid, fstart := tr.newID(), tr.now()
		mins := counting.FindMinDNF(d, h, p)
		tr.end("counting.findmin", fid, id, id, fstart)
		return mins
	}, opts)
	tr.end("mcf0.count_dnf", id, 0, id, start)
	return countResult{est: res.Estimate}
}

// countPass counts suite closed loop from countCallers goroutines, each
// claiming the next formula when its last count returns. With a tracer
// the counts go through countTraced. It returns each count's result and
// error, each count's latency (ms, unsorted) and the wall time.
func countPass(suite []countCase, tr *tracer) ([]countResult, []error, []float64, time.Duration) {
	results := make([]countResult, len(suite))
	errs := make([]error, len(suite))
	lats := make([][]float64, countCallers)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range countCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(suite) {
					return
				}
				s := time.Now()
				if tr == nil {
					results[i], errs[i] = countPublic(suite[i])
				} else {
					results[i] = countTraced(suite[i], tr)
				}
				lats[w] = append(lats[w], ms(time.Since(s)))
			}
		}()
	}
	wg.Wait()
	return results, errs, slices.Concat(lats...), time.Since(t0)
}

func runCount(cfg runConfig, r *report) (*tracer, error) {
	n := cfg.seconds * countRate
	salt := mix64(cfg.seed ^ countSuiteSalt)

	var suite []countCase
	setup, err := timeSetups(setupRepeats, func() error {
		suite = buildSuite(salt, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range suite {
		if suite[i].cnf {
			suite[i].truth = float64(exact.CountCNF(suite[i].cnfFormula()))
		} else {
			suite[i].truth = float64(exact.CountDNF(suite[i].dnfFormula()))
		}
	}

	// Warm up at the measured concurrency on other formulas.
	_, errs, _, _ := countPass(buildSuite(mix64(cfg.seed^countWarmSalt), warmupOps(n)), nil)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	runtime.GC()
	results, errs, lat, wall := countPass(suite, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var errSum float64
	inBand := 0
	for i, c := range suite {
		if errs[i] == nil && mcf0.WithinFactor(results[i].est, c.truth, countEpsilon) {
			inBand++
		}
		errSum += relErr(results[i].est, c.truth)
	}
	r.ops(n, n-inBand)
	var queries, conflicts, props, decisions int64
	for _, res := range results {
		queries += res.queries
		conflicts += res.solver.Conflicts
		props += res.solver.Propagations
		decisions += res.solver.Decisions
	}

	slices.Sort(lat)
	if !cfg.trace {
		r.add("throughput_per_s", float64(n)/wall.Seconds(), "1/s", fmt.Sprintf("(%d counts in %.2fs, %d callers)", n, wall.Seconds(), countCallers))
		r.add("p50_ms", percentile(lat, 50), "ms", fmt.Sprintf("(count call, n=%d)", len(lat)))
		r.add("setup_s", stats.Median(setup), "s", fmt.Sprintf("(suite construction, median of %d)", len(setup)))
		r.add("peak_rss_mb", rss, "MB", "(peak RSS after the measured phase)")
		fmt.Printf("info mean_rel_err=%.6f in_band=%d/%d oracle_queries=%d conflicts=%d\n", errSum/float64(n), inBand, n, queries, conflicts)
		return nil, nil
	}

	tr := newTracer()
	runtime.GC()
	traced, _, _, tracedWall := countPass(suite, tr)
	same := 0
	for i := range suite {
		if traced[i] == results[i] {
			same++
		}
	}
	r.ops(n, 0)
	r.check("traced counts equal untraced (estimates, oracle and solver counts)", same == n, fmt.Sprintf("%d of %d identical", same, n))

	r.addTail(lat, "count call")
	cnfSpans, dnfSpans := tr.named("mcf0.count_cnf"), tr.named("mcf0.count_dnf")
	enum, findmin := tr.named("oracle.enumerate"), tr.named("counting.findmin")
	cnfSt, dnfSt := statsOf(cnfSpans), statsOf(dnfSpans)
	enumSt, findSt := statsOf(enum), statsOf(findmin)
	r.add("mcf0.count_cnf.mean_ms", cnfSt.meanUS()/1e3, "ms", fmt.Sprintf("(n=%d)", cnfSt.calls))
	r.add("mcf0.count_dnf.mean_ms", dnfSt.meanUS()/1e3, "ms", fmt.Sprintf("(n=%d)", dnfSt.calls))
	r.add("oracle.enumerate.calls", float64(enumSt.calls), "count", "")
	r.add("oracle.enumerate.busy_s", enumSt.busyS(), "s", "(summed over both callers)")
	r.add("counting.findmin.calls", float64(findSt.calls), "count", "")
	r.add("counting.findmin.busy_s", findSt.busyS(), "s", "(summed over both callers)")
	self := selfTimeS(cnfSpans, enum) + selfTimeS(dnfSpans, findmin)
	r.add("counting.self_s", self, "s", "(count spans minus the union of their oracle/FindMin children)")
	r.add("oracle.queries", float64(queries), "count", "")
	r.add("sat.conflicts", float64(conflicts), "count", "")
	r.add("sat.propagations", float64(props), "count", "")
	r.add("sat.decisions", float64(decisions), "count", "")
	r.add("mean_rel_err", errSum/float64(n), "ratio", fmt.Sprintf("(mean over %d formulas)", n))
	r.add("trace.overhead_ratio", wall.Seconds()/tracedWall.Seconds(), "ratio",
		fmt.Sprintf("(traced %.2fs, untraced %.2fs for the same %d counts)", tracedWall.Seconds(), wall.Seconds(), n))
	return tr, nil
}
