// Package critpath reconstructs per-session span trees from a flight-
// recorder snapshot and computes the serving critical path.
//
// The input is the flat event ring (trace.Event with Span/Parent identity
// from PR 7). Build folds it into a causal forest: one tree per serving
// session rooted at its KindServeSession span, with KindPhase segments as
// the first tier and secchan/monitor/kernel spans below them. Analyze then
// walks the forest and answers "where did the cycles go": per-(tenant,
// phase) self-time broken down by contributor, and a critical-path
// estimate per phase using PR 4's overlap rule — work on per-core dispatch
// tracks overlaps across cores, everything else is shared, so
//
//	critical ≈ shared + busiest core
//
// mirroring the serve loop's wall accounting (wall += round − Σcore +
// max core).
//
// Both stages are pure functions of the snapshot: iteration orders are
// fixed (event order in, sorted keys out), floats never enter the
// arithmetic, and reports render with fixed formatting — so a pinned
// (seed, P) reproduces its golden breakdown byte-for-byte.
//
// Drop pressure is surfaced, never papered over: when the ring evicted
// events, Build still returns the partial forest but also a typed
// *IncompleteError, and every report carries a "partial" banner. A
// truncated analysis is clearly flagged; it is never a silent wrong
// answer.
package critpath

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/asterisc-release/erebor-go/internal/trace"
)

// TenantFleet is the pseudo-tenant for fleet-level segments (phase spans
// recorded outside any session: scheduler pumping, idle parking).
const TenantFleet = -1

// IncompleteError is the typed "incomplete tree" result: the ring dropped
// events, so some sessions are missing descendants (or whole subtrees) and
// any critical path computed from the forest is partial.
type IncompleteError struct {
	// Dropped is the recorder's evicted-event count.
	Dropped uint64
	// Orphans counts events whose Parent span has no recorded event in the
	// snapshot (ancestry severed by eviction or by a run ending
	// mid-session).
	Orphans int
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("critpath: incomplete span forest: %d events dropped, %d orphaned events — critical path is partial", e.Dropped, e.Orphans)
}

// Node is one span in the reconstructed forest.
type Node struct {
	Event    trace.Event
	Children []*Node // in event (= completion) order
}

// ID is the node's span ID.
func (n *Node) ID() trace.SpanID { return n.Event.Span }

// Name is the node's contributor label: the event label when present,
// otherwise the kind name. Dispatch spans collapse to "dispatch" (their
// labels are task names, which would shatter the breakdown).
func (n *Node) Name() string {
	if n.Event.Kind == trace.KindDispatch {
		return "dispatch"
	}
	if n.Event.Label != "" {
		return n.Event.Label
	}
	return n.Event.Kind.String()
}

// SelfCycles is the node's exclusive time: its duration minus the summed
// durations of its direct children, clamped at zero (children recorded on
// overlapping tracks can exceed the parent's span).
func (n *Node) SelfCycles() uint64 {
	var kids uint64
	for _, c := range n.Children {
		kids += c.Event.Dur
	}
	if kids >= n.Event.Dur {
		return 0
	}
	return n.Event.Dur - kids
}

// Session is one serving session's tree.
type Session struct {
	Root   *Node
	Tenant int
}

// Forest is the reconstructed causal forest.
type Forest struct {
	// Sessions in root-event (= completion) order.
	Sessions []*Session
	// Fleet holds root-level phase segments recorded outside any session.
	Fleet []*Node
	// Nodes indexes every event that carries a span ID.
	Nodes map[trace.SpanID]*Node
	// Dropped and Orphans mirror the IncompleteError fields; Partial is
	// true when either is nonzero.
	Dropped uint64
	Orphans int
	Partial bool
}

// SessionByRoot is for the SLO exemplar tests here, in serve and in
// erebor-serve. It resolves a root span ID (e.g. an SLO p99 exemplar) to
// its session tree, nil when unknown.
func (f *Forest) SessionByRoot(id trace.SpanID) *Session {
	for _, s := range f.Sessions {
		if s.Root.ID() == id {
			return s
		}
	}
	return nil
}

// tenantOf parses the tenant out of a serve-session root label
// ("serve/tenant/<n>"), TenantFleet when it doesn't parse.
func tenantOf(label string) int {
	const pfx = "serve/tenant/"
	if !strings.HasPrefix(label, pfx) {
		return TenantFleet
	}
	n, err := strconv.Atoi(label[len(pfx):])
	if err != nil {
		return TenantFleet
	}
	return n
}

// Build folds a snapshot into the causal forest. The forest is always
// returned; when the recorder dropped events (or ancestry is severed) the
// error is a *IncompleteError and the forest is marked Partial — callers
// must surface the flag, not discard it.
func Build(events []trace.Event, dropped uint64) (*Forest, error) {
	f := &Forest{Nodes: make(map[trace.SpanID]*Node), Dropped: dropped}
	// First pass: index every span-carrying event. Events are appended at
	// span completion, so children precede parents in the ring and a
	// single pass cannot link; index first, link second.
	var spanned []*Node
	for _, ev := range events {
		if ev.Span == 0 {
			continue
		}
		n := &Node{Event: ev}
		f.Nodes[ev.Span] = n
		spanned = append(spanned, n)
	}
	// Second pass: link children under parents, preserving event order.
	for _, n := range spanned {
		p := n.Event.Parent
		if p == 0 {
			continue
		}
		parent, ok := f.Nodes[p]
		if !ok {
			f.Orphans++
			continue
		}
		parent.Children = append(parent.Children, n)
	}
	// Roots: serve-session spans become sessions; parentless phase spans
	// are fleet segments; anything else parentless is an orphaned subtree
	// only if its parent was evicted (Parent != 0 counted above).
	for _, n := range spanned {
		if n.Event.Parent != 0 {
			continue
		}
		switch n.Event.Kind {
		case trace.KindServeSession:
			f.Sessions = append(f.Sessions, &Session{Root: n, Tenant: tenantOf(n.Event.Label)})
		case trace.KindPhase:
			f.Fleet = append(f.Fleet, n)
		}
	}
	if dropped > 0 || f.Orphans > 0 {
		f.Partial = true
		return f, &IncompleteError{Dropped: dropped, Orphans: f.Orphans}
	}
	return f, nil
}

// Contributor is one named source of cycles inside a phase.
type Contributor struct {
	Name   string
	Cycles uint64
	Count  uint64
}

// PhaseRow is the analysis of one phase (aggregated across tenants, or of
// one (tenant, phase) cell in Report.Tenants).
type PhaseRow struct {
	Tenant int // TenantFleet in the aggregate table
	Phase  string
	// Total is all cycles attributed to the phase; Shared the portion not
	// on per-core dispatch tracks; Cores the per-core dispatch busy time;
	// Critical = Shared + max(Cores) (PR 4's overlap rule).
	Total    uint64
	Shared   uint64
	Cores    []CoreBusy
	Critical uint64
	// Contributors by descending self-time (ties broken by name).
	Contributors []Contributor
}

// CoreBusy is one core's dispatch time within a phase.
type CoreBusy struct {
	Core   int
	Cycles uint64
}

// Report is the deterministic critical-path breakdown.
type Report struct {
	Sessions int
	Partial  bool
	Dropped  uint64
	Orphans  int
	// Phases aggregates across tenants in canonical phase order; Tenants
	// holds the per-(tenant, phase) cells, sorted by tenant then phase.
	Phases  []PhaseRow
	Tenants []PhaseRow
}

// phaseOrder pins the canonical serving-phase order; unknown phases sort
// after, alphabetically.
var phaseOrder = map[string]int{
	"handshake": 0, "install": 1, "compute": 2, "output": 3,
	"recycle": 4, "launch": 5, "fleet": 6,
}

func phaseLess(a, b string) bool {
	ai, aok := phaseOrder[a]
	bi, bok := phaseOrder[b]
	switch {
	case aok && bok:
		return ai < bi
	case aok:
		return true
	case bok:
		return false
	default:
		return a < b
	}
}

// cell accumulates one (tenant, phase) during analysis.
type cell struct {
	tenant int
	phase  string
	contr  map[string]*Contributor
	cores  map[int]uint64
	shared uint64
	total  uint64
}

type analyzer struct {
	cells map[[2]interface{}]*cell
	keys  [][2]interface{}
}

func (a *analyzer) cell(tenant int, phase string) *cell {
	k := [2]interface{}{tenant, phase}
	c, ok := a.cells[k]
	if !ok {
		c = &cell{tenant: tenant, phase: phase,
			contr: make(map[string]*Contributor), cores: make(map[int]uint64)}
		a.cells[k] = c
		a.keys = append(a.keys, k)
	}
	return c
}

// charge attributes a subtree to the cell: the root's duration counts
// toward the total once; every node contributes its self-time, so the
// contributor sum conserves against the total.
func (a *analyzer) charge(c *cell, n *Node) {
	c.total += n.Event.Dur
	a.chargeSub(c, n)
}

func (a *analyzer) chargeSub(c *cell, n *Node) {
	a.chargeNode(c, n, n.SelfCycles())
	for _, kid := range n.Children {
		a.chargeSub(c, kid)
	}
}

func (a *analyzer) chargeNode(c *cell, n *Node, self uint64) {
	name := n.Name()
	if n.Event.Kind == trace.KindPhase {
		// A phase segment's own self-time is the serving loop's work
		// between child spans (FSM stepping, frame pumping bookkeeping).
		name = "(serve-loop)"
	}
	ct, ok := c.contr[name]
	if !ok {
		ct = &Contributor{Name: name}
		c.contr[name] = ct
	}
	ct.Cycles += self
	ct.Count++
	if core, ok := trace.CoreOf(n.Event.Track); ok {
		c.cores[core] += self
	} else {
		c.shared += self
	}
}

func (c *cell) row() PhaseRow {
	row := PhaseRow{Tenant: c.tenant, Phase: c.phase, Total: c.total, Shared: c.shared}
	var cores []int
	for core := range c.cores {
		cores = append(cores, core)
	}
	sort.Ints(cores)
	var maxCore uint64
	for _, core := range cores {
		row.Cores = append(row.Cores, CoreBusy{Core: core, Cycles: c.cores[core]})
		if c.cores[core] > maxCore {
			maxCore = c.cores[core]
		}
	}
	row.Critical = c.shared + maxCore
	for _, ct := range c.contr {
		row.Contributors = append(row.Contributors, *ct)
	}
	sort.Slice(row.Contributors, func(i, j int) bool {
		a, b := row.Contributors[i], row.Contributors[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Name < b.Name
	})
	return row
}

// Analyze computes the per-(tenant, phase) breakdown and the per-phase
// critical path from a forest. Deterministic: output order is (canonical
// phase order, tenant asc), contributor order (cycles desc, name asc).
func Analyze(f *Forest) *Report {
	rep := &Report{
		Sessions: len(f.Sessions),
		Partial:  f.Partial, Dropped: f.Dropped, Orphans: f.Orphans,
	}
	perTenant := &analyzer{cells: make(map[[2]interface{}]*cell)}
	agg := &analyzer{cells: make(map[[2]interface{}]*cell)}
	chargeSeg := func(tenant int, seg *Node) {
		phase := seg.Event.Label
		if phase == "" {
			phase = "(unnamed)"
		}
		perTenant.charge(perTenant.cell(tenant, phase), seg)
		agg.charge(agg.cell(TenantFleet, phase), seg)
	}
	for _, s := range f.Sessions {
		// Every direct child of a session root is charged: KindPhase
		// segments under their phase name, anything else under its own
		// label, so no recorded cycle vanishes from the breakdown.
		for _, seg := range s.Root.Children {
			chargeSeg(s.Tenant, seg)
		}
	}
	for _, seg := range f.Fleet {
		chargeSeg(TenantFleet, seg)
	}
	collect := func(a *analyzer) []PhaseRow {
		rows := make([]PhaseRow, 0, len(a.keys))
		for _, k := range a.keys {
			rows = append(rows, a.cells[k].row())
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Phase != rows[j].Phase {
				return phaseLess(rows[i].Phase, rows[j].Phase)
			}
			return rows[i].Tenant < rows[j].Tenant
		})
		return rows
	}
	rep.Phases = collect(agg)
	rep.Tenants = collect(perTenant)
	return rep
}

// topN caps the contributors named per row in text output.
const topN = 3

// writeRows renders one table of rows.
func writeRows(w io.Writer, rows []PhaseRow, withTenant bool) {
	if withTenant {
		fmt.Fprintf(w, "%-8s ", "tenant")
	}
	fmt.Fprintf(w, "%-12s %14s %14s %14s  %s\n",
		"phase", "total", "shared", "critical", "top contributors")
	for i := range rows {
		r := &rows[i]
		if withTenant {
			fmt.Fprintf(w, "%-8d ", r.Tenant)
		}
		var parts []string
		for j, c := range r.Contributors {
			if j == topN {
				parts = append(parts, fmt.Sprintf("+%d more", len(r.Contributors)-topN))
				break
			}
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Cycles))
		}
		fmt.Fprintf(w, "%-12s %14d %14d %14d  %s\n",
			r.Phase, r.Total, r.Shared, r.Critical, strings.Join(parts, " "))
	}
}

// WriteText renders the report as aligned tables: the aggregate per-phase
// critical path, then per-core dispatch occupancy per phase where present.
func (rep *Report) WriteText(w io.Writer) {
	if rep.Partial {
		fmt.Fprintf(w, "PARTIAL: %d events dropped, %d orphaned — critical path is a lower bound\n",
			rep.Dropped, rep.Orphans)
	}
	fmt.Fprintf(w, "sessions reconstructed: %d\n", rep.Sessions)
	writeRows(w, rep.Phases, false)
	for i := range rep.Phases {
		r := &rep.Phases[i]
		if len(r.Cores) == 0 {
			continue
		}
		var parts []string
		for _, cb := range r.Cores {
			parts = append(parts, fmt.Sprintf("cpu%d=%d", cb.Core, cb.Cycles))
		}
		fmt.Fprintf(w, "cores[%s]: %s\n", r.Phase, strings.Join(parts, " "))
	}
}

// WriteTenants renders the per-(tenant, phase) table, optionally filtered
// to one tenant (pass TenantFleet for all).
func (rep *Report) WriteTenants(w io.Writer, tenant int) {
	rows := rep.Tenants
	if tenant != TenantFleet {
		var filtered []PhaseRow
		for _, r := range rows {
			if r.Tenant == tenant {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}
	if rep.Partial {
		fmt.Fprintf(w, "PARTIAL: %d events dropped, %d orphaned — critical path is a lower bound\n",
			rep.Dropped, rep.Orphans)
	}
	writeRows(w, rows, true)
}
