package streaming

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// refBucket is a plain transcription of lines 3–11 of Algorithm 3 for one
// copy, in the paper's order: dedup against the cell (a Go map), then
// hash, then filter at the current level, overflowing by re-filtering the
// whole map. It shares no code with bucketCopy.
type refBucket struct {
	h     *hash.Linear
	level int
	cell  map[bitvec.Fingerprint]bitvec.BitVec
}

func (r *refBucket) process(x bitvec.BitVec, thresh int) {
	key := x.Fingerprint()
	if _, ok := r.cell[key]; ok {
		return
	}
	y := r.h.Eval(x)
	if !y.HasZeroPrefix(r.level) {
		return
	}
	r.cell[key] = y
	for len(r.cell) > thresh {
		r.level++
		for k, v := range r.cell {
			if !v.HasZeroPrefix(r.level) {
				delete(r.cell, k)
			}
		}
	}
}

// newRefBuckets draws t hashes exactly as NewBucketing does for the same
// Options, so reference copy i and sketch copy i share a draw without
// sharing a pointer.
func newRefBuckets(n int, opts Options) []*refBucket {
	fam := hash.NewToeplitz(n, n)
	rng := opts.rng()
	refs := make([]*refBucket, opts.iterations())
	for i := range refs {
		refs[i] = &refBucket{h: fam.Draw(rng.Uint64).(*hash.Linear),
			cell: map[bitvec.Fingerprint]bitvec.BitVec{}}
	}
	return refs
}

// repeatStream draws length elements over an n-bit universe where about
// 90% of the elements repeat one already drawn.
func repeatStream(n, length int, rng *stats.RNG) []bitvec.BitVec {
	out := make([]bitvec.BitVec, 0, length)
	for len(out) < length {
		if len(out) > 0 && rng.Uint64n(10) != 0 {
			out = append(out, out[rng.Uint64n(uint64(len(out)))])
			continue
		}
		out = append(out, bitvec.Random(n, rng.Uint64))
	}
	return out
}

// requireMatchesRef asserts that every copy of b holds the reference
// copy's level and key→row contents, that every live slot is reachable
// through the copy's own index, and that the estimates agree.
func requireMatchesRef(t *testing.T, what string, b *Bucketing, refs []*refBucket) {
	t.Helper()
	if len(b.copies) != len(refs) {
		t.Fatalf("%s: %d copies, reference has %d", what, len(b.copies), len(refs))
	}
	ests := make([]float64, len(refs))
	for i, r := range refs {
		c := &b.copies[i]
		if c.level != r.level {
			t.Fatalf("%s: copy %d: level %d, reference %d", what, i, c.level, r.level)
		}
		if c.live != len(r.cell) {
			t.Fatalf("%s: copy %d: %d cells, reference %d", what, i, c.live, len(r.cell))
		}
		for s := 0; s < c.live; s++ {
			if pos, ok := c.find(c.keys[s]); !ok || c.index[pos] != int32(s+1) {
				t.Fatalf("%s: copy %d: slot %d not reachable through the index", what, i, s)
			}
		}
		for k, v := range r.cell {
			pos, ok := c.find(k)
			if !ok || !c.rows[c.index[pos]-1].Equal(v) {
				t.Fatalf("%s: copy %d: cell diverges from the reference at key %v", what, i, k)
			}
		}
		ests[i] = float64(len(r.cell)) * pow2(r.level)
	}
	if got, want := b.Estimate(), stats.Median(ests); got != want {
		t.Fatalf("%s: estimate %v, reference %v", what, got, want)
	}
}

// Reference differential for the bucketing cell: hash-first absorb and
// the open-addressed index must reproduce the paper's dedup → hash →
// filter cell exactly, through ingestion, Clone/Merge over random
// partitions, and a snapshot round trip. A small Thresh and a
// repeat-heavy stream make levels rise often, so eviction and index
// rebuilds run throughout.
func TestBucketingReferenceDifferential(t *testing.T) {
	n := 24
	for _, seed := range []uint64{1, 2, 3, 4} {
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			opts := func() Options {
				return Options{Thresh: 5 + int(seed), Iterations: 9,
					RNG: stats.NewRNG(0xb0c4 + seed), Parallelism: par}
			}
			rng := stats.NewRNG(seed)
			stream := repeatStream(n, 3000, rng)

			b := NewBucketing(n, opts())
			refs := newRefBuckets(n, opts())
			for lo := 0; lo < len(stream); lo += 500 {
				part := stream[lo:min(lo+500, len(stream))]
				feedChunks(b, part)
				for _, x := range part {
					for _, r := range refs {
						r.process(x, b.thresh)
					}
				}
				requireMatchesRef(t, "ingest", b, refs)
			}

			// Clone/Merge: split the stream at random over k clones of one
			// empty sketch, then merge them all into the first.
			k := 2 + int(rng.Uint64n(3))
			base := NewBucketing(n, opts())
			parts := make([]*Bucketing, k)
			for j := range parts {
				parts[j] = base.Clone().(*Bucketing)
			}
			for _, x := range stream {
				parts[rng.Uint64n(uint64(k))].Process(x)
			}
			for j := 1; j < k; j++ {
				if err := parts[0].Merge(parts[j]); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			requireMatchesRef(t, "merge", parts[0], refs)

			// Snapshot round trip, then keep ingesting into the decoded
			// sketch so its rebuilt index is exercised too.
			blob, err := b.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSketch(blob, par)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			db := dec.(*Bucketing)
			requireMatchesRef(t, "decode", db, refs)
			tail := repeatStream(n, 1000, rng)
			feedChunks(db, tail)
			for _, x := range tail {
				for _, r := range refs {
					r.process(x, b.thresh)
				}
			}
			requireMatchesRef(t, "decode+ingest", db, refs)
		}
	}
}

// After a level raise every surviving key must be findable at its slot
// with its hash value, and no evicted key may be found.
func TestBucketingSetLevelIndex(t *testing.T) {
	n := 16
	const thresh = 300 // no overflow while filling
	b := NewBucketing(n, Options{Thresh: thresh, Iterations: 1, RNG: stats.NewRNG(0x5e7)})
	c := &b.copies[0]
	// Sequential keys: structured fingerprints must still spread over the
	// index.
	for v := uint64(0); v < thresh; v++ {
		x := bitvec.FromUint64(v, n)
		c.absorb(x, x.Fingerprint(), thresh)
	}
	if c.live != thresh {
		t.Fatalf("filled %d cells, want %d", c.live, thresh)
	}
	want := map[bitvec.Fingerprint]bitvec.BitVec{}
	for s := 0; s < c.live; s++ {
		want[c.keys[s]] = c.rows[s].Clone()
	}
	for level := 1; level <= n && c.live > 0; level++ {
		c.setLevel(level)
		kept := 0
		for k, v := range want {
			pos, found := c.find(k)
			if !v.HasZeroPrefix(level) {
				if found {
					t.Fatalf("level %d: evicted key %v still in the index", level, k)
				}
				continue
			}
			kept++
			if !found || !c.rows[c.index[pos]-1].Equal(v) || c.keys[c.index[pos]-1] != k {
				t.Fatalf("level %d: surviving key %v lost or misplaced", level, k)
			}
		}
		if kept != c.live {
			t.Fatalf("level %d: %d survivors, cell holds %d", level, kept, c.live)
		}
		occupied := 0
		for _, e := range c.index {
			if e != 0 {
				occupied++
			}
		}
		if occupied != c.live {
			t.Fatalf("level %d: index holds %d entries for %d cells", level, occupied, c.live)
		}
	}
}

// A snapshot whose cell repeats a fingerprint, or holds a value that
// escapes its level, must fail to decode as corrupt.
func TestBucketingDecodeRejectsCorruptCells(t *testing.T) {
	n := 16
	mk := func() *Bucketing {
		b := NewBucketing(n, mergeOpts(95, 1))
		feedChunks(b, dupStream(n, 400, stats.NewRNG(0x95)))
		return b
	}
	b := mk()
	c := &b.copies[0]
	if c.live < 2 {
		t.Fatalf("copy 0 holds %d cells; need 2", c.live)
	}
	c.keys[1] = c.keys[0]
	c.rows[1].CopyFrom(c.rows[0])
	blob, _ := b.MarshalBinary()
	if _, err := DecodeSketch(blob, 1); !errors.Is(err, wire.ErrCorrupt) ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate fingerprints: got %v, want a duplicate ErrCorrupt", err)
	}

	b = mk()
	c = &b.copies[0]
	c.level = n // no nonzero hash value has an all-zero n-bit prefix
	escapes := false
	for s := 0; s < c.live; s++ {
		escapes = escapes || !c.rows[s].HasZeroPrefix(n)
	}
	if !escapes {
		t.Fatal("every cell of copy 0 is zero; pick another seed")
	}
	blob, _ = b.MarshalBinary()
	if _, err := DecodeSketch(blob, 1); !errors.Is(err, wire.ErrCorrupt) ||
		!strings.Contains(err.Error(), "escapes") {
		t.Fatalf("cell above its level: got %v, want an escapes ErrCorrupt", err)
	}
}
