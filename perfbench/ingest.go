package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mcf0"
	"mcf0/internal/stats"
)

// The ingest workload: one producer, closed loop, 128-element batches of
// keys drawn uniformly from a 2^32 universe, so nearly every element is
// new.
const (
	ingestBits  = 32
	ingestBatch = 128
	// ingestRate is the nominal AddBatch calls per second on a 2-core
	// VM; --seconds times it is the number of measured batches.
	ingestRate = 2400
	// estimateGroups groups of estimatesPerGroup reads of the final
	// estimate are timed for the read latency.
	estimateGroups, estimatesPerGroup = 21, 50
)

// ingestKeys is the seeded element stream: batch i is a pure function of
// (seed, i).
type ingestKeys struct{ seed uint64 }

func (k ingestKeys) fill(i int, dst []uint64) {
	base := uint64(i) * ingestBatch
	for j := range dst {
		dst[j] = mix64(k.seed^mix64(base+uint64(j))) & (1<<ingestBits - 1)
	}
}

func ingestConfig(seed uint64, parallelism int) mcf0.Config {
	return mcf0.Config{Seed: sketchSeed(seed, 1), Parallelism: parallelism}
}

// ingestPhase is one pass of the stream through a fresh sketch.
type ingestPhase struct {
	f0   *mcf0.F0
	lat  []float64 // ms per measured AddBatch
	wall time.Duration
}

// throughput is elements absorbed per second of the measured phase.
func (p ingestPhase) throughput() float64 {
	return float64(len(p.lat)*ingestBatch) / p.wall.Seconds()
}

// ingestPass streams warm untimed batches and then n timed ones into a
// fresh sketch. With a tracer, each timed AddBatch is a span called name.
func ingestPass(seed uint64, warm, n, parallelism int, tr *tracer, name string) (ingestPhase, error) {
	f, err := mcf0.NewF0(ingestBits, mcf0.AlgorithmBucketing, ingestConfig(seed, parallelism))
	if err != nil {
		return ingestPhase{}, err
	}
	keys := ingestKeys{seed}
	buf := make([]uint64, ingestBatch)
	for i := 0; i < warm; i++ {
		keys.fill(i, buf)
		f.AddBatch(buf)
	}
	p := ingestPhase{f0: f, lat: make([]float64, 0, n)}
	runtime.GC()
	t0 := time.Now()
	for i := warm; i < warm+n; i++ {
		keys.fill(i, buf)
		if tr == nil {
			s := time.Now()
			f.AddBatch(buf)
			p.lat = append(p.lat, ms(time.Since(s)))
		} else {
			id, s := tr.newID(), tr.now()
			f.AddBatch(buf)
			p.lat = append(p.lat, float64(tr.end(name, id, 0, id, s))/1e6)
		}
	}
	p.wall = time.Since(t0)
	return p, nil
}

func runIngest(cfg runConfig, r *report) (*tracer, error) {
	n := cfg.seconds * ingestRate
	warm := warmupOps(n)

	setup, err := timeSetups(setupRepeats, func() error {
		_, err := mcf0.NewF0(ingestBits, mcf0.AlgorithmBucketing, ingestConfig(cfg.seed, 0))
		return err
	})
	if err != nil {
		return nil, err
	}

	plain, err := ingestPass(cfg.seed, warm, n, 0, nil, "")
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	est := plain.f0.Estimate()
	r.ops(n, 0)

	// The gate: a second sketch fed the same elements in 1024-element
	// batches must agree bit for bit (batching and parallelism are never
	// semantic), and the exact distinct count gives the error.
	all := make([]uint64, (warm+n)*ingestBatch)
	keys := ingestKeys{cfg.seed}
	for i := 0; i < warm+n; i++ {
		keys.fill(i, all[i*ingestBatch:(i+1)*ingestBatch])
	}
	ref, err := mcf0.NewF0(ingestBits, mcf0.AlgorithmBucketing, ingestConfig(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(all); lo += 1024 {
		ref.AddBatch(all[lo:min(lo+1024, len(all))])
	}
	r.check("final estimate equals a re-batched replay", ref.Estimate() == est,
		fmt.Sprintf("%v vs %v", est, ref.Estimate()))
	total := len(all)
	distinct := distinctSorted(all)

	slices.Sort(plain.lat)
	if !cfg.trace {
		r.add("throughput_per_s", plain.throughput(), "1/s",
			fmt.Sprintf("(%d elements in %.2fs, 1 producer)", n*ingestBatch, plain.wall.Seconds()))
		r.add("p50_ms", percentile(plain.lat, 50), "ms", fmt.Sprintf("(AddBatch, n=%d)", len(plain.lat)))
		r.add("setup_s", stats.Median(setup), "s", fmt.Sprintf("(NewF0, median of %d)", len(setup)))
		r.add("peak_rss_mb", rss, "MB", "(peak RSS after the measured phase)")
		fmt.Printf("info mean_rel_err=%.6f distinct=%d estimate=%v\n", relErr(est, float64(distinct)), distinct, est)
		return nil, nil
	}

	tr := newTracer()
	traced, err := ingestPass(cfg.seed, warm, n, 0, tr, "mcf0.f0_add_batch")
	if err != nil {
		return nil, err
	}
	r.ops(n, 0)
	r.check("traced estimate equals untraced", traced.f0.Estimate() == est,
		fmt.Sprintf("%v vs %v", traced.f0.Estimate(), est))
	// The single-threaded baseline: the first quarter of the same
	// batches through a sketch with Parallelism 1, against the same
	// quarter of the traced default run.
	q := n / 4
	if _, err := ingestPass(cfg.seed, warm, q, 1, tr, "mcf0.f0_add_batch.par1"); err != nil {
		return nil, err
	}
	r.ops(q, 0)
	def := statsOf(tr.named("mcf0.f0_add_batch")[:q])
	one := statsOf(tr.named("mcf0.f0_add_batch.par1"))

	// One read takes a few microseconds, so reads are timed in groups and
	// each group's mean per read is a sample.
	runtime.GC()
	reads := make([]float64, estimateGroups)
	for i := range reads {
		t0 := time.Now()
		for range estimatesPerGroup {
			if e := plain.f0.Estimate(); e != est {
				return nil, fmt.Errorf("ingest: estimate changed between reads (%v, %v)", est, e)
			}
		}
		reads[i] = ms(time.Since(t0)) / estimatesPerGroup
	}

	r.addTail(plain.lat, "AddBatch")
	r.add("estimate_p50_ms", stats.Median(reads), "ms",
		fmt.Sprintf("(F0.Estimate on the final untraced sketch, %d groups of %d reads)", len(reads), estimatesPerGroup))
	st := statsOf(tr.named("mcf0.f0_add_batch"))
	r.add("mcf0.f0_add_batch.calls", float64(st.calls), "count", "")
	r.add("mcf0.f0_add_batch.mean_us", st.meanUS(), "us", "")
	r.add("par.fanout_speedup", one.meanUS()/def.meanUS(), "ratio",
		fmt.Sprintf("(Parallelism 1 mean %.1fus / default %.1fus over %d batches)", one.meanUS(), def.meanUS(), q))
	r.add("mcf0.sketch_words", float64(plain.f0.SketchWords()), "words", "")
	r.add("stream.repeat_share", repeatShare(total, distinct), "ratio", fmt.Sprintf("(%d of %d elements distinct)", distinct, total))
	r.add("mean_rel_err", relErr(est, float64(distinct)), "ratio", fmt.Sprintf("(estimate %v, exact %d)", est, distinct))
	r.add("trace.overhead_ratio", traced.throughput()/plain.throughput(), "ratio",
		fmt.Sprintf("(traced %.0f/s, untraced %.0f/s)", traced.throughput(), plain.throughput()))
	return tr, nil
}
