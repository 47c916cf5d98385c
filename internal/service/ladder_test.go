package service

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// ladderDelta is what one create — followed to convergence, closed, the
// store flushed — moved in Stats(): the service's own warm-start and
// drift counters, the cache's, and the store's.
type ladderDelta struct {
	WarmStarts, IsoWarmStarts             uint64
	Recosted, Resumed, DriftQuarantined   uint64
	Poisoned                              uint64
	Exact, Iso, Stale, Misses, Puts       uint64
	CachePoisoned                         uint64
	Persisted, Tombstones, StoreCorrupted uint64
}

func ladderCounters(svc *Service) ladderDelta {
	st := svc.Stats()
	return ladderDelta{
		WarmStarts: st.WarmStarts, IsoWarmStarts: st.IsoWarmStarts,
		Recosted: st.DriftRecosted, Resumed: st.DriftResumed, DriftQuarantined: st.DriftQuarantined,
		Poisoned: st.Poisoned,
		Exact:    st.Cache.ExactHits, Iso: st.Cache.IsoHits, Stale: st.Cache.StaleHits,
		Misses: st.Cache.Misses, Puts: st.Cache.Puts, CachePoisoned: st.Cache.Poisoned,
		Persisted: st.Store.Persisted, Tombstones: st.Store.Tombstones, StoreCorrupted: st.Store.Corrupted,
	}
}

func (a ladderDelta) minus(b ladderDelta) ladderDelta {
	return ladderDelta{
		a.WarmStarts - b.WarmStarts, a.IsoWarmStarts - b.IsoWarmStarts,
		a.Recosted - b.Recosted, a.Resumed - b.Resumed, a.DriftQuarantined - b.DriftQuarantined,
		a.Poisoned - b.Poisoned,
		a.Exact - b.Exact, a.Iso - b.Iso, a.Stale - b.Stale, a.Misses - b.Misses, a.Puts - b.Puts,
		a.CachePoisoned - b.CachePoisoned,
		a.Persisted - b.Persisted, a.Tombstones - b.Tombstones, a.StoreCorrupted - b.StoreCorrupted,
	}
}

// ladderOutcome is everything a client or an operator can see of how one
// create was seeded.
type ladderOutcome struct {
	Provenance, Drift string
	Warm              bool
	// Spans are the creation-path span kinds of the session's trace, in
	// order.
	Spans string
	ladderDelta
}

// ladderCreate runs one create to its target and reports its outcome.
func ladderCreate(t *testing.T, svc *Service, q *query.Query) ladderOutcome {
	t.Helper()
	flush := func() {
		if st := svc.Store(); st != nil {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
	before := ladderCounters(svc)
	id, err := svc.Create(q)
	if err != nil {
		t.Fatal(err)
	}
	// The creation path seeds its spans before Create returns.
	tr, err := svc.SessionTrace(id)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, sp := range tr.Spans {
		switch sp.Kind {
		case "admit", "cache-exact", "cache-iso", "cache-miss", "remap", "drift":
			spans = append(spans, sp.Kind)
		}
	}
	st, err := svc.WaitTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != AtTarget || len(st.Frontier) == 0 {
		t.Fatalf("session %s ended %v with %d frontier plans", id, st.State, len(st.Frontier))
	}
	if tr.Provenance != st.Provenance {
		t.Errorf("trace provenance %q, poll provenance %q", tr.Provenance, st.Provenance)
	}
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
	flush()
	return ladderOutcome{
		Provenance: st.Provenance, Drift: st.Drift, Warm: st.WarmStarted,
		Spans:       strings.Join(spans, " "),
		ladderDelta: ladderCounters(svc).minus(before),
	}
}

// ladderBoot starts a service on dir ("" for none) that the test's end
// shuts down if the scenario has not.
func ladderBoot(t *testing.T, dir string, mutate func(*Config)) *Service {
	t.Helper()
	cfg := testConfig(3)
	cfg.StoreDir = dir
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Shutdown)
	return svc
}

// dropCheckpoint removes the checkpoint and with it the hot set, so the next
// life leaves every record a stub until its first use.
func dropCheckpoint(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
}

// TestCreateLadderGolden pins what each rung of the warm-start ladder
// shows for one create: the poll's provenance, drift and warm flag, what
// the create (and the session's convergence) moved in the service's, the
// cache's and the store's counters, the creation-path spans of the trace,
// and the provenance of the next identical create. Written against the
// public surface only, so it pins the ladder across rewrites of Create.
func TestCreateLadderGolden(t *testing.T) {
	withStats := func(stats *catalog.Versioned) func(*Config) {
		return func(cfg *Config) { cfg.Stats = stats }
	}
	apply := func(t *testing.T, stats *catalog.Versioned, u catalog.TableStats) {
		t.Helper()
		if _, err := stats.Apply(catalog.StatsUpdate{Tables: []catalog.TableStats{u}}); err != nil {
			t.Fatal(err)
		}
	}
	// drifted converges Q3 under the first epoch on a store, applies the
	// update, and returns the service and Q3 under the new statistics.
	drifted := func(u catalog.TableStats) func(*testing.T) (*Service, *query.Query) {
		return func(t *testing.T) (*Service, *query.Query) {
			stats := catalog.NewVersioned(workload.Catalog(1))
			svc := ladderBoot(t, t.TempDir(), withStats(stats))
			convergeAndClose(t, svc, driftBlocks(t, stats, "Q3"))
			apply(t, stats, u)
			return svc, driftBlocks(t, stats, "Q3")
		}
	}
	// restarted converges prime on a store and returns the next life on
	// the same directory, booted without a hint after damage ran.
	restarted := func(t *testing.T, prime *query.Query, damage func(dir string), mutate func(*Config)) *Service {
		dir := t.TempDir()
		svc := ladderBoot(t, dir, mutate)
		convergeAndClose(t, svc, prime)
		svc.Shutdown()
		dropCheckpoint(t, dir)
		if damage != nil {
			damage(dir)
		}
		return ladderBoot(t, dir, mutate)
	}
	no := false

	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Service, *query.Query)
		want  ladderOutcome
		next  string // provenance of the next identical create
	}{
		{name: "cache off",
			setup: func(t *testing.T) (*Service, *query.Query) {
				return ladderBoot(t, "", func(cfg *Config) { cfg.CacheCapacity = -1 }), testBlock(t, "Q4")
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit"},
			next: "cold"},
		{name: "miss",
			setup: func(t *testing.T) (*Service, *query.Query) {
				return ladderBoot(t, t.TempDir(), nil), testBlock(t, "Q4")
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit cache-miss",
				ladderDelta: ladderDelta{Misses: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
		{name: "exact",
			setup: func(t *testing.T) (*Service, *query.Query) {
				svc := ladderBoot(t, t.TempDir(), nil)
				convergeAndClose(t, svc, testBlock(t, "Q4"))
				return svc, testBlock(t, "Q4")
			},
			want: ladderOutcome{Provenance: "exact", Warm: true, Spans: "admit cache-exact",
				ladderDelta: ladderDelta{WarmStarts: 1, Exact: 1}},
			next: "exact"},
		{name: "exact-replay",
			setup: func(t *testing.T) (*Service, *query.Query) {
				return restarted(t, testBlock(t, "Q4"), nil, nil), testBlock(t, "Q4")
			},
			want: ladderOutcome{Provenance: "exact-replay", Warm: true, Spans: "admit cache-exact",
				ladderDelta: ladderDelta{WarmStarts: 1, Exact: 1}},
			next: "exact-replay"},
		{name: "iso",
			setup: func(t *testing.T) (*Service, *query.Query) {
				qa, qb := isoServiceQueries(t)
				svc := ladderBoot(t, t.TempDir(), nil)
				convergeAndClose(t, svc, qa)
				return svc, qb
			},
			want: ladderOutcome{Provenance: "iso", Warm: true, Spans: "admit cache-iso remap",
				ladderDelta: ladderDelta{WarmStarts: 1, IsoWarmStarts: 1, Iso: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
		{name: "iso-replay",
			setup: func(t *testing.T) (*Service, *query.Query) {
				qa, qb := isoServiceQueries(t)
				return restarted(t, qa, nil, nil), qb
			},
			want: ladderOutcome{Provenance: "iso-replay", Warm: true, Spans: "admit cache-iso remap",
				ladderDelta: ladderDelta{WarmStarts: 1, IsoWarmStarts: 1, Iso: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
		{name: "small drift",
			// The re-costed state is admitted under the session's own keys at
			// the create: the put and the record are there before any step,
			// and the session's convergence exports nothing more.
			setup: drifted(catalog.TableStats{Name: "orders", Rows: 1_500_000 * 1.01}),
			want: ladderOutcome{Provenance: "recost", Drift: "recosted", Warm: true, Spans: "admit drift",
				ladderDelta: ladderDelta{WarmStarts: 1, Recosted: 1, Stale: 1, Misses: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
		{name: "large drift",
			setup: drifted(catalog.TableStats{Name: "lineitem", Rows: 6_000_000 * 4}),
			want: ladderOutcome{Provenance: "resume", Drift: "resumed", Warm: true, Spans: "admit drift",
				ladderDelta: ladderDelta{WarmStarts: 1, Resumed: 1, Stale: 1, Misses: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
		{name: "incompatible drift",
			setup: drifted(catalog.TableStats{Name: "orders", HasIndex: &no}),
			want: ladderOutcome{Provenance: "cold", Drift: "quarantined", Spans: "admit cache-miss drift",
				ladderDelta: ladderDelta{DriftQuarantined: 1, Poisoned: 1, Stale: 1, Misses: 1, Puts: 1,
					CachePoisoned: 1, Persisted: 1, Tombstones: 1}},
			next: "exact"},
		{name: "restore failure",
			// The nearest thing to a zero-value snapshot the store lets in: no
			// plan state at all, the configuration echo the scan insists on, a
			// bound vector of the echo's dimension the codec insists on, and a
			// node watermark no restore accepts. It reads and decodes; it
			// cannot restore.
			setup: func(t *testing.T) (*Service, *query.Query) {
				dir, q := t.TempDir(), testBlock(t, "Q4")
				echo, err := core.ConfigFingerprint(testConfig(3).Opt)
				if err != nil {
					t.Fatal(err)
				}
				unbounded := make([]float64, testConfig(3).Opt.Model.Space().Dim())
				for i := range unbounded {
					unbounded[i] = math.Inf(1)
				}
				snap, err := core.SnapshotFromWire(core.SnapshotWire{
					CfgEcho: echo, NextID: math.MaxUint32, PrevBounds: unbounded})
				if err != nil {
					t.Fatal(err)
				}
				st, err := store.Open(store.Options{Dir: dir, CfgEcho: echo})
				if err != nil {
					t.Fatal(err)
				}
				canonFp, perm := q.CanonicalFingerprint()
				st.Put(query.Keys{FP: q.Fingerprint(), CanonFP: canonFp, StructFP: q.StructuralFingerprint(), Perm: perm}, snap, true)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				return ladderBoot(t, dir, nil), q
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit cache-miss",
				ladderDelta: ladderDelta{Poisoned: 1, Exact: 1, Puts: 1, CachePoisoned: 1, Persisted: 1, Tombstones: 1}},
			next: "exact"},
		{name: "stub poison, exact tier",
			setup: func(t *testing.T) (*Service, *query.Query) {
				q := testBlock(t, "Q4")
				return restarted(t, q, func(dir string) { poisonOnlyFrame(t, dir) }, nil), q
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit cache-miss",
				ladderDelta: ladderDelta{Poisoned: 1, Exact: 1, Puts: 1, CachePoisoned: 1,
					Persisted: 1, Tombstones: 1, StoreCorrupted: 1}},
			next: "exact"},
		{name: "stub poison, stale tier",
			// Not a drift outcome: the stale entry was never classified.
			setup: func(t *testing.T) (*Service, *query.Query) {
				stats := catalog.NewVersioned(workload.Catalog(1))
				svc := restarted(t, driftBlocks(t, stats, "Q3"), func(dir string) {
					poisonOnlyFrame(t, dir)
					apply(t, stats, catalog.TableStats{Name: "orders", Rows: 1_500_000 * 1.01})
				}, withStats(stats))
				return svc, driftBlocks(t, stats, "Q3")
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit cache-miss",
				ladderDelta: ladderDelta{Poisoned: 1, Stale: 1, Misses: 1, Puts: 1, CachePoisoned: 1,
					Persisted: 1, Tombstones: 1, StoreCorrupted: 1}},
			next: "exact"},
		{name: "stub read error",
			// The disk's fault, not the record's: nothing is quarantined, and
			// the cold session's export replaces the stub.
			setup: func(t *testing.T) (*Service, *query.Query) {
				q := testBlock(t, "Q4")
				inj := faultfs.NewInjector(nil)
				svc := restarted(t, q, nil, func(cfg *Config) { cfg.StoreOptions.FS = inj })
				// The boot's scan is done; from here on only loads open a
				// segment to read it.
				inj.SetScript(func(op faultfs.Op, path string, _ uint64) faultfs.Fault {
					if op == faultfs.OpOpen && strings.HasSuffix(path, ".moqs") {
						return faultfs.Fault{Err: errors.New("injected: input/output error")}
					}
					return faultfs.Fault{}
				})
				return svc, q
			},
			want: ladderOutcome{Provenance: "cold", Spans: "admit cache-miss",
				ladderDelta: ladderDelta{Exact: 1, Puts: 1, Persisted: 1}},
			next: "exact"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, q := tc.setup(t)
			if got := ladderCreate(t, svc, q); got != tc.want {
				t.Errorf("create:\n got %+v\nwant %+v", got, tc.want)
			}
			if got := ladderCreate(t, svc, q); got.Provenance != tc.next {
				t.Errorf("next identical create: provenance %q, want %q", got.Provenance, tc.next)
			}
		})
	}
}
