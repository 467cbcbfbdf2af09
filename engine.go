package pathalias

// The incremental engine: the library's live-service mode. Run and
// RunFiles are batch one-shots; an Engine keeps the parse→graph→map
// pipeline resident so successive Update calls over a slowly-mutating
// map set cost only the delta (see internal/remap). A routed deployment
// tracks map edits in milliseconds instead of re-mapping the world.

import (
	"pathalias/internal/core"
	"pathalias/internal/cost"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
	"pathalias/internal/remap"
)

// Engine recomputes routes incrementally as its inputs change. Create
// one with NewEngine, feed it complete input sets with Update, and read
// the latest routes with Result. Not safe for concurrent use; the
// Results it returns are immutable snapshots and may be shared freely.
type Engine struct {
	opts Options
	eng  *remap.Engine
}

// remapOptions translates public Options into the incremental engine's
// option set (shared by NewEngine and NewMultiEngine).
func remapOptions(opts Options) remap.Options {
	mopts := mapper.DefaultOptions()
	mopts.SecondBest = opts.SecondBest
	mopts.BackLinks = !opts.NoBackLinks
	if opts.MixedPenalty != 0 {
		mopts.MixedPenalty = cost.Cost(opts.MixedPenalty)
	}
	if opts.GatewayPenalty != 0 {
		mopts.GatewayPenalty = cost.Cost(opts.GatewayPenalty)
	}
	if opts.DomainRelayPenalty != 0 {
		mopts.DomainRelayPenalty = cost.Cost(opts.DomainRelayPenalty)
	}
	if opts.DeadPenalty != 0 {
		mopts.DeadPenalty = cost.Cost(opts.DeadPenalty)
	}
	return remap.Options{
		LocalHost: opts.LocalHost,
		Mapper:    &mopts,
		Printer: printer.Options{
			Costs:        opts.PrintCosts,
			SortByCost:   opts.SortByCost,
			DomainsOnly:  opts.DomainsOnly,
			FirstHopCost: opts.FirstHopCost,
		},
		Avoid:       opts.Avoid,
		FoldCase:    opts.IgnoreCase,
		MaxVantages: opts.MaxVantages,
	}
}

// NewEngine returns an engine computing routes from opts.LocalHost with
// the same semantics as Run: the first Update is a full build, later
// Updates re-scan only changed inputs and re-map only the affected part
// of the network. Routes, Warnings, and Unreachable are byte-identical
// to a from-scratch Run over the same inputs after every Update.
//
// Of the Stats fields, the mapping-side counters are populated: Reached,
// BackLinked, and Penalized always describe the full current map, while
// Extractions and Relaxations count only the work this update actually
// performed (a warm update re-relaxes just the dirty region, which is
// the point). The parse-side counters — Hosts, Nets, Domains, Links —
// stay zero: restating the whole graph is exactly the work a warm update
// avoids; use Run for a one-shot census.
func NewEngine(opts Options) (*Engine, error) {
	eng, err := remap.NewEngine(remapOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Engine{opts: opts, eng: eng}, nil
}

// Update brings the engine to the given input set — always the complete
// set, not a delta — and returns the recomputed result. On error the
// previous result keeps serving.
func (e *Engine) Update(inputs ...Input) (*Result, error) {
	rins := make([]remap.Input, len(inputs))
	for i, in := range inputs {
		rins[i] = remap.Input{Name: in.Name, Src: in.Text}
	}
	rres, err := e.eng.Update(rins)
	if err != nil {
		return nil, err
	}
	return e.convert(rres), nil
}

// UpdateFiles reads the named files into memory and updates from them.
// Files may be saved in place or replaced by rename: nothing the engine
// keeps aliases a file, so a save that races the read costs at most one
// update over torn content, which the next UpdateFiles corrects.
func (e *Engine) UpdateFiles(paths ...string) (*Result, error) {
	ins, err := core.ReadInputs(paths)
	if err != nil {
		return nil, err
	}
	rres, err := e.eng.Update(ins)
	if err != nil {
		return nil, err
	}
	return e.convert(rres), nil
}

// Result returns the latest successful update's result, or nil before
// the first.
func (e *Engine) Result() *Result {
	if last := e.eng.Result(); last != nil {
		return e.convert(last)
	}
	return nil
}

// EngineStats count engine activity across updates.
type EngineStats struct {
	Updates     int // Update calls that did work
	Unchanged   int // Update calls with identical inputs
	Incremental int // warm-path updates (delta re-maps)
	FullRemaps  int // full re-maps over the patched graph
	Rebuilds    int // full rebuilds (first run, reorders, parse errors)
	Rescanned   int // inputs re-scanned
	TailApplies int // changed files journaled by replaying only an appended tail
}

// Stats returns engine activity counters.
func (e *Engine) Stats() EngineStats { return EngineStats(e.eng.Stats) }

func (e *Engine) convert(r *remap.Result) *Result { return convertResult(e.opts, r) }

// convertResult translates an incremental-engine result into the public
// shape (shared by Engine and MultiEngine).
func convertResult(opts Options, r *remap.Result) *Result {
	res := &Result{
		Warnings:    r.Warnings,
		Unreachable: r.Unreachable,
		RouteGen:    r.RouteGen,
		opts:        opts,
	}
	res.Routes = make([]Route, len(r.Entries))
	for i, en := range r.Entries {
		res.Routes[i] = Route{Host: en.Host, Format: en.Route, Cost: int64(en.Cost)}
	}
	res.Stats.Reached = r.Reached
	res.Stats.BackLinked = r.BackLinked
	res.Stats.Penalized = r.Penalized
	res.Stats.Extractions = r.Extractions
	res.Stats.Relaxations = r.Relaxations
	return res
}
