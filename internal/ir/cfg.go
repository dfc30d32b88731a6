package ir

// CFGInfo caches control-flow analyses for a function: predecessors,
// reverse postorder, immediate dominators, and natural loops. Passes
// recompute it after structural edits.
type CFGInfo struct {
	F     *Function
	Preds map[*Block][]*Block
	// RPO is the reverse postorder over reachable blocks.
	RPO []*Block
	// rpoIndex maps block -> position in RPO; unreachable blocks absent.
	rpoIndex map[*Block]int
	// IDom maps block -> immediate dominator (entry maps to itself).
	IDom map[*Block]*Block
	// Loops are the natural loops, innermost-last.
	Loops []*Loop
}

// Loop is a natural loop: header plus body blocks.
type Loop struct {
	Header *Block
	// Blocks includes the header.
	Blocks map[*Block]bool
	// Latches are the blocks with back edges to the header.
	Latches []*Block
	// Parent is the enclosing loop, nil for top-level.
	Parent *Loop
	// Depth is 1 for top-level loops.
	Depth int
}

// Contains reports whether b is inside the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// AnalyzeCFG computes CFG facts for f.
func AnalyzeCFG(f *Function) *CFGInfo {
	// The analysis mutates nothing, yet it bumps the generation: it may
	// stop only once every pass that mutates f is shown to touch f itself.
	f.Touch()
	info := &CFGInfo{
		F:        f,
		Preds:    make(map[*Block][]*Block),
		rpoIndex: make(map[*Block]int),
		IDom:     make(map[*Block]*Block),
	}
	entry := f.Entry()
	if entry == nil {
		return info
	}

	// DFS postorder over reachable blocks.
	visited := make(map[*Block]bool)
	var postorder []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b] = true
		for _, s := range b.Succs() {
			info.Preds[s] = append(info.Preds[s], b)
			if !visited[s] {
				dfs(s)
			}
		}
		postorder = append(postorder, b)
	}
	dfs(entry)

	info.RPO = make([]*Block, len(postorder))
	for i, b := range postorder {
		info.RPO[len(postorder)-1-i] = b
	}
	for i, b := range info.RPO {
		info.rpoIndex[b] = i
	}

	info.computeDominators()
	info.findLoops()
	return info
}

// computeDominators is the Cooper–Harvey–Kennedy iterative algorithm.
func (c *CFGInfo) computeDominators() {
	if len(c.RPO) == 0 {
		return
	}
	entry := c.RPO[0]
	c.IDom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIDom *Block
			for _, p := range c.Preds[b] {
				if _, ok := c.IDom[p]; !ok {
					continue // pred not yet processed
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = c.intersect(p, newIDom)
				}
			}
			if newIDom == nil {
				continue
			}
			if c.IDom[b] != newIDom {
				c.IDom[b] = newIDom
				changed = true
			}
		}
	}
}

func (c *CFGInfo) intersect(a, b *Block) *Block {
	for a != b {
		for c.rpoIndex[a] > c.rpoIndex[b] {
			a = c.IDom[a]
		}
		for c.rpoIndex[b] > c.rpoIndex[a] {
			b = c.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (c *CFGInfo) Dominates(a, b *Block) bool {
	if _, ok := c.rpoIndex[b]; !ok {
		return false // unreachable
	}
	for {
		if a == b {
			return true
		}
		idom := c.IDom[b]
		if idom == b || idom == nil {
			return false
		}
		b = idom
	}
}

// findLoops locates back edges (edge t->h where h dominates t) and grows
// each natural loop body.
func (c *CFGInfo) findLoops() {
	loopsByHeader := make(map[*Block]*Loop)
	var headers []*Block
	for _, b := range c.RPO {
		for _, s := range b.Succs() {
			if c.Dominates(s, b) {
				// b -> s is a back edge; s is the header.
				l, ok := loopsByHeader[s]
				if !ok {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					loopsByHeader[s] = l
					headers = append(headers, s)
				}
				l.Latches = append(l.Latches, b)
				// Grow loop body: all blocks that reach the latch
				// without passing through the header.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range c.Preds[x] {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Nesting: loop A is a parent of loop B if A contains B's header and
	// A != B. Choose the smallest such container as the parent.
	for _, h := range headers {
		l := loopsByHeader[h]
		var parent *Loop
		for _, h2 := range headers {
			l2 := loopsByHeader[h2]
			if l2 == l || !l2.Blocks[l.Header] {
				continue
			}
			if parent == nil || len(l2.Blocks) < len(parent.Blocks) {
				parent = l2
			}
		}
		l.Parent = parent
	}
	for _, h := range headers {
		l := loopsByHeader[h]
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
		c.Loops = append(c.Loops, l)
	}
}

// LoopOf returns the innermost loop containing b, or nil.
func (c *CFGInfo) LoopOf(b *Block) *Loop {
	var best *Loop
	for _, l := range c.Loops {
		if l.Blocks[b] && (best == nil || l.Depth > best.Depth) {
			best = l
		}
	}
	return best
}

// Preheader returns the unique predecessor of the loop header that is
// outside the loop, inserting a fresh preheader block if needed. The
// CFGInfo becomes stale after an insertion; callers must re-analyze if
// they need further queries.
func (c *CFGInfo) Preheader(l *Loop) *Block {
	var outside []*Block
	for _, p := range c.Preds[l.Header] {
		if !l.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		// A usable preheader must have the header as its only successor;
		// otherwise code placed there would execute on other paths too.
		if succ := outside[0].Succs(); len(succ) == 1 && succ[0] == l.Header {
			return outside[0]
		}
	}
	// Insert a dedicated preheader.
	ph := c.F.NewBlock(l.Header.Name + ".preheader")
	ph.Instrs = append(ph.Instrs, &Instr{Op: OpJmp, A: NoReg, B: NoReg, Target: l.Header})
	if len(outside) == 0 {
		// The header is the function entry (every predecessor is a latch
		// inside the loop). No edge can be redirected at the new block, so
		// it must become the new entry — left at the tail it would be
		// unreachable and code placed in it would silently never execute.
		last := len(c.F.Blocks) - 1
		copy(c.F.Blocks[1:], c.F.Blocks[:last])
		c.F.Blocks[0] = ph
	}
	for _, p := range outside {
		t := p.Terminator()
		if t.Target == l.Header {
			t.Target = ph
		}
		if t.Op == OpBr && t.Else == l.Header {
			t.Else = ph
		}
	}
	c.F.Touch()
	return ph
}

// RegsWrittenIn returns the set of registers defined anywhere in the loop
// body — the basis of the loop-invariance approximation the hoisting pass
// uses (a register unwritten in the loop is invariant across iterations).
func (l *Loop) RegsWrittenIn() map[Reg]bool {
	w := make(map[Reg]bool)
	for b := range l.Blocks { // detvet:ok — builds a set; the result is order-free
		for _, in := range b.Instrs {
			if d := in.Defs(); d != NoReg {
				w[d] = true
			}
			// Calls may clobber nothing in our IR (no globals), but an
			// Alloc's Dst is a def handled above.
		}
	}
	return w
}
