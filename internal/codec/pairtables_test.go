package codec

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"
	"testing"
)

var regenPairTables = flag.Bool("regen-pair-tables", false, "rewrite pairLens in pairtables.go from the fit")

// pairHist is one block channel's pair counts, sparse: pair index
// a*pairTokens+b and count.
type pairHist []struct{ sym, n uint32 }

// corpusHeader is one block header the fitting corpus plans: the tag
// symbol, and for a rice block each channel's nibble, or for a k = 0
// channel -1-h, h the index of its pair histogram: its nibble is the table
// that codes it cheapest, known once the pair tables are fitted.
type corpusHeader struct {
	sym int
	nib [4]int
}

// pairCorpus collects the fitting corpus: the pair histogram of every
// k = 0 rice channel the coder plans, and every tile's block headers, for
// 640×360 game frames (lossless, 16-row tiles; the first frame's tiles
// without a reference, the rest against the tile of the frame before) and
// every tile contentTiles yields. A block of a tile with a reference is
// planned as appendPayload plans it: the temporal delta over every mode,
// the content over H, V and planar. The corpus keeps the plan with the
// lower estimate, and sends a block raw when that estimate says so, where
// the coder measures each block exactly in these very tables: choosing by
// the estimate keeps the corpus, and with it the fit, independent of the
// tables.
func pairCorpus() (corpus []pairHist, tiles [][]corpusHeader) {
	var zz, zzA [4][blockBytes]byte
	add := func(src, ref []byte, rowBytes int) {
		sig := refDelta(src, ref)
		var hdrs []corpusHeader
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			if allZero(sig[i:end]) {
				if len(hdrs) == 0 || hdrs[len(hdrs)-1].sym != symZeros {
					hdrs = append(hdrs, corpusHeader{sym: symZeros})
				}
				continue
			}
			n := end - i
			p := planBlock(&zz, sig, i, end, rowBytes, 0)
			res, tag := &zz[p.mode], byte(0)
			if ref != nil {
				if a := planBlock(&zzA, src, i, end, rowBytes, modeLeft); a.est < p.est {
					p, res, tag = a, &zzA[a.mode], tagSpatial
				}
			}
			if p.est+8*riceOverhead > 8*n {
				hdrs = append(hdrs, corpusHeader{sym: symRaw})
				continue
			}
			ks := p.params(res, n)
			hdr := corpusHeader{sym: tagSymbol(tag | byte(p.mode)<<tagModeShift | byte(p.s))}
			for c, k := range ks {
				switch {
				case k == kZero:
					hdr.nib[c] = kZero
				case uint(k) == 8-p.s:
					hdr.nib[c] = nibVerbatim
				case k > 0:
					hdr.nib[c] = nibRice + int(k)
				default:
					hdr.nib[c] = -1 - len(corpus)
				}
				if k != 0 {
					continue
				}
				var counts [pairSyms]uint32
				for j := c; j < n; j += 8 {
					sym := refPairSym(res[j], res[j+4], p.s)
					counts[int(sym>>4)*pairTokens+int(sym&15)]++
				}
				var h pairHist
				for sym, cnt := range counts {
					if cnt > 0 {
						h = append(h, struct{ sym, n uint32 }{uint32(sym), cnt})
					}
				}
				corpus = append(corpus, h)
			}
			hdrs = append(hdrs, hdr)
		}
		tiles = append(tiles, hdrs)
	}
	const w, h = 640, 360
	var prev []byte
	for _, pix := range gameFrames(w, h, 30) {
		for ti := 0; ti < tileCount(h, DefaultTileRows); ti++ {
			s, e := tileRange(w, h, DefaultTileRows, ti)
			var ref []byte
			if prev != nil {
				ref = prev[s:e]
			}
			add(pix[s:e], ref, 4*w)
		}
		prev = pix
	}
	contentTiles(func(kind string, w int, shift uint, tile, ref []byte) { add(tile, ref, 4*w) })
	return corpus, tiles
}

// histCost is what table lens spends on h, in bits.
func histCost(h pairHist, lens *[pairSyms]uint8) uint32 {
	var bits uint32
	for _, e := range h {
		bits += e.n * uint32(lens[e.sym])
	}
	return bits
}

// limitedLengths returns the optimal code lengths of at most limit bits for
// the weights w (all positive), by package-merge: integer arithmetic only,
// ties broken by symbol index, so the result is a complete prefix code and
// the same on every host.
func limitedLengths(w []uint64, limit int) []uint8 {
	type item struct {
		w    uint64
		uses []uint8 // how often each symbol is inside the item
	}
	leaves := make([]item, len(w))
	for i := range leaves {
		leaves[i].w = w[i]
		leaves[i].uses = make([]uint8, len(w))
		leaves[i].uses[i] = 1
	}
	sort.SliceStable(leaves, func(x, y int) bool { return leaves[x].w < leaves[y].w })
	list := leaves
	for level := 1; level < limit; level++ {
		var merged []item
		li := 0
		for p := 0; p+1 < len(list); p += 2 {
			pkg := item{w: list[p].w + list[p+1].w, uses: make([]uint8, len(w))}
			for i := range pkg.uses {
				pkg.uses[i] = list[p].uses[i] + list[p+1].uses[i]
			}
			for li < len(leaves) && leaves[li].w <= pkg.w {
				merged = append(merged, leaves[li])
				li++
			}
			merged = append(merged, pkg)
		}
		list = append(merged, leaves[li:]...)
	}
	lens := make([]uint8, len(w))
	for _, it := range list[:2*len(w)-2] {
		for i, u := range it.uses {
			lens[i] += u
		}
	}
	return lens
}

// fitPairTables is the rule the committed tables come from. Seed: the
// channels sorted by their share of (0, 0) pairs, cut into unaryTable groups
// of equal size. Then, until no channel moves (at most 50 rounds): fit each
// group's table as the length-limited optimal code of the group's summed
// counts plus one per pair (every pair must have a code), and move every
// channel to the table that codes it cheapest, the unary table included,
// the lowest-numbered on a tie. Last, the tables are ordered by their code
// lengths, shortest (0, 0) code first.
func fitPairTables(corpus []pairHist) [unaryTable][pairSyms]uint8 {
	unary, _ := tableLens(unaryTable)
	type keyed struct {
		key uint64
		i   int
	}
	order := make([]keyed, len(corpus))
	for i, h := range corpus {
		var zero, total uint64
		for _, e := range h {
			total += uint64(e.n)
			if e.sym == 0 {
				zero = uint64(e.n)
			}
		}
		order[i] = keyed{zero << 16 / total, i}
	}
	sort.SliceStable(order, func(x, y int) bool { return order[x].key < order[y].key })
	assign := make([]int, len(corpus))
	for r, o := range order {
		assign[o.i] = r * unaryTable / len(order)
	}
	var tabs [pairTables][pairSyms]uint8
	tabs[unaryTable] = unary
	for round := 0; round < 50; round++ {
		var sums [unaryTable][pairSyms]uint64
		var members [unaryTable]int
		for i, h := range corpus {
			if t := assign[i]; t < unaryTable {
				members[t]++
				for _, e := range h {
					sums[t][e.sym] += uint64(e.n)
				}
			}
		}
		for t := range sums {
			if members[t] == 0 && round > 0 {
				continue // an emptied table keeps its last fit
			}
			for i := range sums[t] {
				sums[t][i]++
			}
			tabs[t] = [pairSyms]uint8(limitedLengths(sums[t][:], maxPairLen))
		}
		moved := 0
		for i, h := range corpus {
			best, bestCost := 0, histCost(h, &tabs[0])
			for t := 1; t < pairTables; t++ {
				if c := histCost(h, &tabs[t]); c < bestCost {
					best, bestCost = t, c
				}
			}
			if best != assign[i] {
				assign[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	fitted := tabs[:unaryTable]
	sort.SliceStable(fitted, func(x, y int) bool {
		return bytes.Compare(fitted[x][:], fitted[y][:]) < 0
	})
	return [unaryTable][pairSyms]uint8(fitted)
}

// fitHeaderTables is the rule the committed header tables come from: each
// rice channel's nibble resolved against the fitted pair tables (the
// cheapest table, the lowest-numbered on a tie, as the coder picks it), the
// headers counted in their contexts as the coder codes them, each context
// starting afresh at a tile start, and every context's table fitted as the
// length-limited optimal code of its counts plus one per symbol.
func fitHeaderTables(corpus []pairHist, tiles [][]corpusHeader, fitted *[unaryTable][pairSyms]uint8) (tags [tagCtxs][tagSyms]uint8, nibs [4][nibCtxs][nibSyms]uint8) {
	var tabs [pairTables][pairSyms]uint8
	copy(tabs[:], fitted[:])
	tabs[unaryTable], _ = tableLens(unaryTable)
	var tagN [tagCtxs][tagSyms]uint64
	var nibN [4][nibCtxs][nibSyms]uint64
	for _, hdrs := range tiles {
		ctx := newHdrCtx()
		for _, h := range hdrs {
			tagN[ctx.tag][h.sym]++
			ctx.tag = h.sym
			if h.sym >= symZeros {
				continue
			}
			for c, v := range h.nib {
				if v < 0 {
					best, least := 0, histCost(corpus[-1-v], &tabs[0])
					for tb := 1; tb < pairTables; tb++ {
						if b := histCost(corpus[-1-v], &tabs[tb]); b < least {
							best, least = tb, b
						}
					}
					v = best
				}
				nibN[c][ctx.nib[c]][v]++
				ctx.nib[c] = uint8(v)
			}
		}
	}
	fit := func(n []uint64, lens []uint8) {
		w := make([]uint64, len(n))
		for i, v := range n {
			w[i] = v + 1
		}
		copy(lens, limitedLengths(w, maxHeaderCode))
	}
	for ctx := range tagN {
		fit(tagN[ctx][:], tags[ctx][:])
	}
	for c := range nibN {
		for ctx := range nibN[c] {
			fit(nibN[c][ctx][:], nibs[c][ctx][:])
		}
	}
	return tags, nibs
}

// TestPairTablesRegenerate re-derives the committed pair and header tables
// from their rules and checks their form: every fitted table a complete
// prefix code within its length limit, and the unary table the unary code
// bit for bit.
func TestPairTablesRegenerate(t *testing.T) {
	corpus, tiles := pairCorpus()
	fitted := fitPairTables(corpus)
	tags, nibs := fitHeaderTables(corpus, tiles, &fitted)
	if *regenPairTables {
		writeLiteral(t, "pairtables.go", "var pairLens = [unaryTable][pairSyms]uint8{\n", rows(fitted[:]))
		writeLiteral(t, "headers.go", "var tagLens = [tagCtxs][tagSyms]uint8{\n", rows(tags[:]))
		var b strings.Builder
		for c := range nibs {
			fmt.Fprintf(&b, "{\n%s},\n", rows(nibs[c][:]))
		}
		writeLiteral(t, "headers.go", "var nibLens = [4][nibCtxs][nibSyms]uint8{\n", b.String())
	} else {
		if fitted != pairLens {
			t.Errorf("the committed pairLens differ from the fit on %d channels; run go test -run TestPairTablesRegenerate -regen-pair-tables", len(corpus))
		}
		if tags != tagLens || nibs != nibLens {
			t.Errorf("the committed header tables differ from the fit on %d tiles; run go test -run TestPairTablesRegenerate -regen-pair-tables", len(tiles))
		}
	}
	kraft := func(what string, lens []uint8, limit int) {
		sum := 0
		for i, l := range lens {
			if l < 1 || int(l) > limit {
				t.Fatalf("%s symbol %d: length %d outside 1..%d", what, i, l, limit)
			}
			sum += 1 << (limit - int(l))
		}
		if sum != 1<<limit {
			t.Errorf("%s: Kraft sum %d/2^%d, want exactly 1 (a complete code)", what, sum, limit)
		}
	}
	for ctx := range tagLens {
		kraft(fmt.Sprintf("tag table %d", ctx), tagLens[ctx][:], maxHeaderCode)
	}
	for c := range nibLens {
		for ctx := range nibLens[c] {
			kraft(fmt.Sprintf("channel %d nibble table %d", c, ctx), nibLens[c][ctx][:], maxHeaderCode)
		}
	}
	for tb := range pairLens {
		kraft(fmt.Sprintf("pair table %d", tb), pairLens[tb][:], maxPairLen)
	}
	for a := 0; a < pairTokens; a++ {
		for b := 0; b < pairTokens; b++ {
			w := &refBitWriter{}
			w.bits(0, uint(a))
			w.bits(1, 1)
			w.bits(0, uint(b))
			w.bits(1, 1)
			var want uint32
			for i, x := range w.b {
				want |= uint32(x) << (8 * i)
			}
			e := pairs.code[unaryTable][a<<4|b]
			if e&(1<<codeLenShift-1) != want || int(e>>codeLenShift) != w.n {
				t.Fatalf("unary table, pair (%d, %d): code %#x/%d bits, want %#x/%d", a, b, e&(1<<codeLenShift-1), e>>codeLenShift, want, w.n)
			}
		}
	}
	// Every code of every table decodes to its pair, whatever follows it.
	for tb := range pairs.code {
		lut := &pairs.lut[tb]
		for a := 0; a < pairTokens; a++ {
			for b := 0; b < pairTokens; b++ {
				e := pairs.code[tb][a<<4|b]
				l := e >> codeLenShift
				for _, tail := range []uint64{0, ^uint64(0)} {
					w := uint64(e&(1<<codeLenShift-1)) | tail<<l
					d := lut.prim[w&(1<<lutBits-1)]
					if d>>lutMaxShift == lutLong {
						d = lut.sec[d>>8&0xFFFF|uint32(w>>lutBits)&(1<<secBits-1)]
					}
					if firstPair(d) != l|1<<6|uint32(a)<<8|uint32(b)<<12|uint32(max(a, b))<<lutMaxShift {
						t.Fatalf("table %d pair (%d, %d): decodes to entry %#x", tb, a, b, d)
					}
				}
			}
		}
		// Two codes within lutBits decode together.
		for s1 := range 256 {
			for s2 := range 256 {
				e1, e2 := pairs.code[tb][s1], pairs.code[tb][s2]
				l1, l2 := e1>>codeLenShift, e2>>codeLenShift
				if s1&15 >= pairTokens || s2&15 >= pairTokens || s1>>4 >= pairTokens || s2>>4 >= pairTokens || l1+l2 > lutBits {
					continue
				}
				d := lut.prim[(e1&(1<<codeLenShift-1)|e2&(1<<codeLenShift-1)<<l1)&(1<<lutBits-1)]
				want := (l1 + l2) | 2<<6 | uint32(s1>>4)<<8 | uint32(s1&15)<<12 | uint32(s2>>4)<<16 | uint32(s2&15)<<20 | l1<<24 |
					uint32(max(s1>>4, s1&15, s2>>4, s2&15))<<lutMaxShift
				if d != want {
					t.Fatalf("table %d pairs %#x, %#x: entry %#x, want %#x", tb, s1, s2, d, want)
				}
			}
		}
	}
}

// rows formats the rows of a table literal, one per line.
func rows[T [pairSyms]uint8 | [tagSyms]uint8 | [nibSyms]uint8](tab []T) string {
	var b strings.Builder
	for _, row := range tab {
		b.WriteString("{")
		for i := range len(row) {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, row[i])
		}
		b.WriteString("},\n")
	}
	return b.String()
}

// writeLiteral rewrites the body of the literal that opens with head in
// file.
func writeLiteral(t *testing.T, file, head, body string) {
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(src, []byte(head))
	if start < 0 {
		t.Fatalf("%q not found in %s", head, file)
	}
	end := bytes.Index(src[start:], []byte("\n}\n"))
	if end < 0 {
		t.Fatalf("%q not closed in %s", head, file)
	}
	out := append(append(append([]byte(nil), src[:start]...), head+body...), src[start+end+1:]...)
	if out, err = format.Source(out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", file)
}
