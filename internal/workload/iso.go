// Isomorphic-workload generation: fleets rarely repeat a query
// byte-for-byte, but they constantly repeat its *shape* — the same join
// graph over different (per-tenant, per-partition, per-alias) tables
// with identical statistics. This file models that: alias catalogs with
// statistically identical table copies, and table-ID-permuted variants
// of base blocks that are isomorphic to them (equal
// query.CanonicalFingerprint, distinct query.Fingerprint), so tests and
// the end-to-end benchmark can exercise the service's cross-shape
// warm-start tier.

package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/tableset"
)

// aliasName names the c-th statistical copy of a base table; copy 0
// keeps the base name.
func aliasName(base string, c int) string {
	if c == 0 {
		return base
	}
	return fmt.Sprintf("%s~%d", base, c)
}

// aliasCatalog builds a catalog holding `copies` statistically
// identical instances of each of the named tables from cat (copy 0
// keeps the original name). The copy count is bounded by the tableset
// width: queries address tables by dense ID < tableset.MaxTables.
func aliasCatalog(cat *catalog.Catalog, names []string, copies int) (*catalog.Catalog, error) {
	if copies < 1 {
		return nil, fmt.Errorf("workload: alias copies %d < 1", copies)
	}
	if len(names)*copies > tableset.MaxTables {
		return nil, fmt.Errorf("workload: %d tables × %d copies exceeds the %d-table ID space",
			len(names), copies, tableset.MaxTables)
	}
	tables := make([]catalog.Table, 0, len(names)*copies)
	for _, name := range names {
		id, ok := cat.ID(name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown table %q", name)
		}
		t := cat.Table(id)
		for c := 0; c < copies; c++ {
			ct := t
			ct.Name = aliasName(name, c)
			tables = append(tables, ct)
		}
	}
	return catalog.New(tables)
}

// relabel rebuilds q over aliasCat with each table mapped to the copy
// chosen by picks (base table name → copy index), carrying edges and
// filters along. The result is isomorphic to q: every target table has
// identical statistics, so canonical digests agree while exact
// fingerprints differ whenever some pick is non-zero.
func relabel(q *query.Query, aliasCat *catalog.Catalog, picks map[string]int, name string) (*query.Query, error) {
	srcCat := q.Catalog()
	idFor := func(id int) (int, error) {
		base := srcCat.Table(id).Name
		nid, ok := aliasCat.ID(aliasName(base, picks[base]))
		if !ok {
			return 0, fmt.Errorf("workload: alias catalog misses copy %d of %q", picks[base], base)
		}
		return nid, nil
	}
	var ids []int
	var firstErr error
	q.Tables().ForEach(func(id int) {
		nid, err := idFor(id)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		ids = append(ids, nid)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	edges := q.Edges()
	for i := range edges {
		a, err := idFor(edges[i].A)
		if err != nil {
			return nil, err
		}
		b, err := idFor(edges[i].B)
		if err != nil {
			return nil, err
		}
		edges[i].A, edges[i].B = a, b
	}
	opts := []query.Option{query.WithName(name)}
	q.Tables().ForEach(func(id int) {
		if f := q.FilterSelectivity(id); f != 1 {
			nid, err := idFor(id)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			opts = append(opts, query.WithFilter(nid, f))
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return query.New(aliasCat, ids, edges, opts...)
}

// IsoVariants returns n deterministic table-ID-permuted variants of
// block, all isomorphic to it and pairwise distinct in their exact
// fingerprint, over an alias catalog with `copies` statistically
// identical instances of each of the block's tables. Variant 0 is the
// identity relabeling onto the alias catalog (the "base"); variant v
// assigns table j its (v / copies^j) mod copies-th copy, so n is
// bounded by copies^tables (and by the tableset ID space via the alias
// catalog). Warming the cache with variant 0 and driving the rest gives
// a zero-exact-repeat, 100%-shape-repeat workload.
func IsoVariants(block Block, copies, n int) ([]Block, error) {
	if copies < 1 {
		return nil, fmt.Errorf("workload: alias copies %d < 1", copies)
	}
	cat := block.Query.Catalog()
	names := make([]string, 0, block.Query.NumTables())
	block.Query.Tables().ForEach(func(id int) {
		names = append(names, cat.Table(id).Name)
	})
	total := 1
	for range names {
		if total > 1<<30/copies {
			total = 1 << 30 // saturate; enough for any realistic n
			break
		}
		total *= copies
	}
	if n < 1 || n > total {
		return nil, fmt.Errorf("workload: %d variants requested, %d tables × %d copies support %d", n, len(names), copies, total)
	}
	aliasCat, err := aliasCatalog(cat, names, copies)
	if err != nil {
		return nil, err
	}
	out := make([]Block, n)
	for v := 0; v < n; v++ {
		picks := make(map[string]int, len(names))
		x := v
		for _, name := range names {
			picks[name] = x % copies
			x /= copies
		}
		name := fmt.Sprintf("%s~iso%d", block.Name, v)
		q, err := relabel(block.Query, aliasCat, picks, name)
		if err != nil {
			return nil, err
		}
		out[v] = Block{Name: name, Query: q}
	}
	return out, nil
}
