package tag

import (
	"math/rand"
	"strings"
	"testing"

	"gmr/internal/expr"
)

// alphaFig3 builds the α-tree of Figure 3(a): BPhy * muPhy, with the whole
// expression labeled "Exp" so revisions can adjoin at the root and the
// right operand also labeled "Exp".
func alphaFig3() *ElemTree {
	root := expr.Mul(expr.NewVar("BPhy"), expr.NewVar("muPhy").Labeled("Exp")).Labeled("Exp")
	return &ElemTree{Name: "alpha:fig3", Kind: Alpha, RootSym: "Exp", Root: root}
}

// betaFig3 builds the β-tree of Figure 3(b): Exp → (Exp* - R↓), deducting a
// substitutable value from an expression.
func betaFig3() *ElemTree {
	root := expr.Sub(expr.NewFoot("Exp"), expr.NewSubSite("R")).Labeled("Exp")
	return &ElemTree{Name: "beta:fig3", Kind: Beta, RootSym: "Exp", Root: root}
}

func litLexeme(v float64) LexemeGen {
	return func(*rand.Rand) *LexemeChoice {
		return &LexemeChoice{Name: "R", Tree: expr.NewLit(v)}
	}
}

func fig3Grammar() *Grammar {
	return &Grammar{
		Alphas:  []*ElemTree{alphaFig3()},
		Betas:   map[string][]*ElemTree{"Exp": {betaFig3()}},
		Lexemes: map[string]LexemeGen{"R": litLexeme(1.5)},
	}
}

func TestElemTreeValidate(t *testing.T) {
	if err := alphaFig3().Validate(); err != nil {
		t.Errorf("valid α rejected: %v", err)
	}
	if err := betaFig3().Validate(); err != nil {
		t.Errorf("valid β rejected: %v", err)
	}
	// α with a foot node is invalid.
	bad := &ElemTree{Name: "bad", Kind: Alpha, RootSym: "Exp",
		Root: expr.Sub(expr.NewFoot("Exp"), expr.NewLit(1)).Labeled("Exp")}
	if err := bad.Validate(); err == nil {
		t.Error("α with foot accepted")
	}
	// β without a foot is invalid.
	bad2 := &ElemTree{Name: "bad2", Kind: Beta, RootSym: "Exp",
		Root: expr.NewLit(1).Labeled("Exp")}
	if err := bad2.Validate(); err == nil {
		t.Error("β without foot accepted")
	}
	// β whose foot symbol differs from the root symbol is invalid.
	bad3 := &ElemTree{Name: "bad3", Kind: Beta, RootSym: "Exp",
		Root: expr.Sub(expr.NewFoot("Other"), expr.NewLit(1)).Labeled("Exp")}
	if err := bad3.Validate(); err == nil {
		t.Error("β with mismatched foot accepted")
	}
	// Root label must match RootSym.
	bad4 := &ElemTree{Name: "bad4", Kind: Alpha, RootSym: "Exp", Root: expr.NewLit(1)}
	if err := bad4.Validate(); err == nil {
		t.Error("α with unlabeled root accepted")
	}
}

func TestAddresses(t *testing.T) {
	a := alphaFig3()
	addrs := AdjAddresses(a.Root)
	// Root ("Exp") and the right operand ("Exp").
	if len(addrs) != 2 {
		t.Fatalf("AdjAddresses = %v, want 2 addresses", addrs)
	}
	if addrs[0].String() != "ε" || addrs[1].String() != "1" {
		t.Errorf("addresses = %v %v, want ε and 1", addrs[0], addrs[1])
	}
	b := betaFig3()
	sites := SubSiteAddresses(b.Root)
	if len(sites) != 1 || sites[0].String() != "1" {
		t.Errorf("substitution sites = %v, want [1]", sites)
	}
	n, err := NodeAt(a.Root, Address{1})
	if err != nil || n.Name != "muPhy" {
		t.Errorf("NodeAt(1) = %v, %v", n, err)
	}
	if _, err := NodeAt(a.Root, Address{5}); err == nil {
		t.Error("out-of-range address accepted")
	}
}

// TestFig3Derivation reproduces the paper's Figure 3 walk-through: adjoining
// β (Exp → Exp* - R↓) at the muPhy node of BPhy*muPhy and substituting 1.5
// yields BPhy * (muPhy - 1.5).
func TestFig3Derivation(t *testing.T) {
	g := fig3Grammar()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	root, err := g.NewNode(rng, g.Alphas[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := g.NewNode(rng, g.Betas["Exp"][0], Address{1})
	if err != nil {
		t.Fatal(err)
	}
	root.Children = append(root.Children, child)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if !derived.Complete() {
		t.Fatalf("derived tree incomplete: %s", derived)
	}
	env := &expr.Env{VarByName: map[string]float64{"BPhy": 2, "muPhy": 3}}
	got, err := derived.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (3 - 1.5); got != want {
		t.Errorf("derived = %v (%s), want %v", got, derived, want)
	}
}

// TestFig3RootAdjunction checks adjoining at the root address instead:
// (BPhy*muPhy) - 1.5.
func TestFig3RootAdjunction(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	child, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{})
	root.Children = append(root.Children, child)
	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	env := &expr.Env{VarByName: map[string]float64{"BPhy": 2, "muPhy": 3}}
	if got := derived.MustEval(env); got != 2*3-1.5 {
		t.Errorf("derived = %v (%s), want 4.5", got, derived)
	}
}

// TestChainedAdjunction grows a chain: adjoin β at the root, then another β
// at the first β's foot address, checking that revision chains compose:
// with foot-address chaining the second deduction applies to the original
// expression, then the first applies on top.
func TestChainedAdjunction(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	c1, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{})
	root.Children = append(root.Children, c1)
	// β root is (Exp* - R): the foot is child 0.
	c2, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{0})
	c1.Children = append(c1.Children, c2)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	env := &expr.Env{VarByName: map[string]float64{"BPhy": 2, "muPhy": 3}}
	if got := derived.MustEval(env); got != (2*3-1.5)-1.5 {
		t.Errorf("derived = %v (%s), want 3", got, derived)
	}
	if root.Size() != 3 {
		t.Errorf("Size = %d, want 3", root.Size())
	}
}

// connectorExtenderGrammar mirrors Figure 7: a connector β may adjoin only
// at ExtC-labeled addresses of the initial process, and an extender β only
// at ExtE-labeled material introduced by connectors.
func connectorExtenderGrammar() *Grammar {
	alpha := &ElemTree{Name: "alpha:fig7", Kind: Alpha, RootSym: "ExtC",
		Root: expr.Mul(expr.NewVar("BPhy"), expr.NewVar("muPhy")).Labeled("ExtC")}
	// Connector: ExtC → ExtC* - (ExtE: BZoo)
	conn := &ElemTree{Name: "conn:minus:BZoo", Kind: Beta, RootSym: "ExtC",
		Root: expr.Sub(expr.NewFoot("ExtC"), expr.NewVar("BZoo").Labeled("ExtE")).Labeled("ExtC")}
	// Extender: ExtE → ExtE* * R↓
	ext := &ElemTree{Name: "ext:mul:R", Kind: Beta, RootSym: "ExtE",
		Root: expr.Mul(expr.NewFoot("ExtE"), expr.NewSubSite("R")).Labeled("ExtE")}
	return &Grammar{
		Alphas:  []*ElemTree{alpha},
		Betas:   map[string][]*ElemTree{"ExtC": {conn}, "ExtE": {ext}},
		Lexemes: map[string]LexemeGen{"R": litLexeme(1.5)},
	}
}

// TestFig7ConnectorExtender reproduces Figure 7(e)/(f):
// BPhy*muPhy → BPhy*muPhy - BZoo → BPhy*muPhy - BZoo*1.5.
func TestFig7ConnectorExtender(t *testing.T) {
	g := connectorExtenderGrammar()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	conn, _ := g.NewNode(rng, g.Betas["ExtC"][0], Address{})
	root.Children = append(root.Children, conn)

	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	env := &expr.Env{VarByName: map[string]float64{"BPhy": 2, "muPhy": 3, "BZoo": 4}}
	if got := derived.MustEval(env); got != 2*3-4 {
		t.Errorf("after connector: %v (%s), want 2", got, derived)
	}

	// Extend the BZoo term: the extender adjoins at the connector's ExtE
	// address (child index 1 of the connector β root).
	ext, _ := g.NewNode(rng, g.Betas["ExtE"][0], Address{1})
	conn.Children = append(conn.Children, ext)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	derived, err = root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if got := derived.MustEval(env); got != 2*3-4*1.5 {
		t.Errorf("after extender: %v (%s), want 0", got, derived)
	}
}

// TestConnectorExtenderSeparation verifies the key knowledge constraint of
// Section III-B3: an extender β cannot adjoin at a connector (ExtC) address
// and vice versa.
func TestConnectorExtenderSeparation(t *testing.T) {
	g := connectorExtenderGrammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	// Try to adjoin the extender directly at the initial process root
	// (an ExtC address): validation must reject it.
	ext, _ := g.NewNode(rng, g.Betas["ExtE"][0], Address{})
	root.Children = append(root.Children, ext)
	if err := root.Validate(); err == nil {
		t.Error("extender adjoined at connector address was accepted")
	}
	if _, err := root.Derive(); err == nil {
		t.Error("Derive succeeded for symbol-mismatched adjunction")
	}
}

func TestValidateRejectsDuplicateAddress(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	c1, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{1})
	c2, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{1})
	root.Children = append(root.Children, c1, c2)
	if err := root.Validate(); err == nil {
		t.Error("two adjunctions at the same address accepted")
	}
}

func TestValidateRejectsBetaRoot(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	bad, _ := g.NewNode(rng, g.Betas["Exp"][0], nil)
	if err := bad.Validate(); err == nil {
		t.Error("derivation rooted at β-tree accepted")
	}
}

func TestDeriveDeepestFirstOrdering(t *testing.T) {
	// Adjoin at both the root (ε) and the inner node (1): the inner
	// revision must be wrapped by the outer one.
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	outer, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{})
	inner, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{1})
	// Deliberately append shallow-first to check Derive sorts internally.
	root.Children = append(root.Children, outer, inner)
	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	env := &expr.Env{VarByName: map[string]float64{"BPhy": 2, "muPhy": 3}}
	// (BPhy * (muPhy - 1.5)) - 1.5 = 2*1.5 - 1.5 = 1.5
	if got := derived.MustEval(env); got != 1.5 {
		t.Errorf("derived = %v (%s), want 1.5", got, derived)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(1))
	root, _ := g.RandomDeriv(rng, 3, 6)
	cp := root.Clone()
	if cp.Size() != root.Size() {
		t.Fatalf("clone size %d != original %d", cp.Size(), root.Size())
	}
	// Mutating the clone's lexemes and children must not affect the
	// original.
	before := root.Size()
	Delete(rng, cp)
	if root.Size() != before {
		t.Error("Delete on clone changed original")
	}
	cp.Walk(func(n, _ *DerivNode) bool {
		for _, l := range n.Lexemes {
			l.Val = 999
		}
		return true
	})
	root.Walk(func(n, _ *DerivNode) bool {
		for _, l := range n.Lexemes {
			if l.Val == 999 {
				t.Fatal("lexeme shared between clone and original")
			}
		}
		return true
	})
}

func TestRandomDerivSizesAndValidity(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		d, err := g.RandomDeriv(rng, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if s := d.Size(); s < 1 || s > 10 {
			t.Fatalf("RandomDeriv size %d outside [1,10]", s)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("RandomDeriv produced invalid tree: %v", err)
		}
		derived, err := d.Derive()
		if err != nil {
			t.Fatalf("Derive: %v", err)
		}
		if !derived.Complete() {
			t.Fatalf("derived tree incomplete: %s", derived)
		}
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(7))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	for i := 0; i < 5; i++ {
		if _, err := g.Insert(rng, root); err != nil {
			t.Fatal(err)
		}
	}
	if root.Size() != 6 {
		t.Fatalf("after 5 inserts size = %d, want 6", root.Size())
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("insert broke validity: %v", err)
	}
	for root.Size() > 1 {
		if !Delete(rng, root) {
			t.Fatal("Delete failed with nodes remaining")
		}
	}
	if Delete(rng, root) {
		t.Error("Delete succeeded on root-only tree")
	}
}

func TestOpenAddressesShrinkAsOccupied(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(3))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	open0 := len(root.OpenAddresses())
	if open0 != 2 {
		t.Fatalf("fresh α has %d open addresses, want 2", open0)
	}
	if _, err := g.Insert(rng, root); err != nil {
		t.Fatal(err)
	}
	// One address is now occupied on the root, but the new β node brings
	// its own addresses (its root, foot, and none else here → 2 labeled
	// nodes: root and foot).
	open1 := root.OpenAddresses()
	for _, oa := range open1 {
		if oa.Node == root && oa.Addr.Equal(root.Children[0].Addr) {
			t.Error("occupied address still reported open")
		}
	}
}

func TestAdjoinErrors(t *testing.T) {
	tree := expr.Mul(expr.NewVar("a"), expr.NewVar("b")).Labeled("Exp")
	auxNoFoot := expr.NewLit(1).Labeled("Exp")
	if _, err := Adjoin(tree, Address{}, auxNoFoot, "Exp"); err == nil {
		t.Error("adjoin with footless aux accepted")
	}
	aux := expr.Sub(expr.NewFoot("Exp"), expr.NewLit(1)).Labeled("Exp")
	if _, err := Adjoin(tree, Address{0}, aux, "Exp"); err == nil {
		t.Error("adjoin at unlabeled node accepted")
	}
}

func TestGrammarValidateCatchesMissingLexeme(t *testing.T) {
	g := fig3Grammar()
	g.Lexemes = map[string]LexemeGen{}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "lexeme") {
		t.Errorf("missing lexeme generator not caught: %v", err)
	}
}

// TestSiteLabelTransferEnablesNestedGrowth checks that after substitution
// the lexeme inherits the site's label, so an extender can adjoin at the
// argument itself — building nested subexpressions like P - (X * 1.5)
// from the chain connector→site, extender-at-site.
func TestSiteLabelTransferEnablesNestedGrowth(t *testing.T) {
	// Connector: Exp → (Exp* - site:R); extender registered under "R".
	alpha := &ElemTree{Name: "a", Kind: Alpha, RootSym: "Exp",
		Root: expr.NewVar("P").Labeled("Exp")}
	conn := &ElemTree{Name: "conn", Kind: Beta, RootSym: "Exp",
		Root: expr.Sub(expr.NewFoot("Exp"), expr.NewSubSite("R")).Labeled("Exp")}
	ext := &ElemTree{Name: "ext", Kind: Beta, RootSym: "R",
		Root: expr.Mul(expr.NewFoot("R"), expr.NewLit(1.5)).Labeled("R")}
	g := &Grammar{
		Alphas: []*ElemTree{alpha},
		Betas:  map[string][]*ElemTree{"Exp": {conn}, "R": {ext}},
		Lexemes: map[string]LexemeGen{"R": func(*rand.Rand) *LexemeChoice {
			return &LexemeChoice{Name: "X", Tree: expr.NewVar("X")}
		}},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	root, _ := g.NewNode(rng, g.Alphas[0], nil)
	c1, _ := g.NewNode(rng, g.Betas["Exp"][0], Address{})
	root.Children = append(root.Children, c1)
	// The site is child 1 of the connector root; adjoin the extender there.
	c2, _ := g.NewNode(rng, g.Betas["R"][0], Address{1})
	c1.Children = append(c1.Children, c2)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	derived, err := root.Derive()
	if err != nil {
		t.Fatal(err)
	}
	env := &expr.Env{VarByName: map[string]float64{"P": 10, "X": 2}}
	if got := derived.MustEval(env); got != 10-2*1.5 {
		t.Errorf("derived = %v (%s), want 7", got, derived)
	}
	// The site address must be offered for growth once a connector exists.
	found := false
	for _, oa := range root.OpenAddresses() {
		if oa.Sym == "R" {
			found = true
		}
	}
	if found {
		t.Log("site addresses are offered (occupied one excluded)")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := fig3Grammar()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		d, err := g.RandomDeriv(rng, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := Encode(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := g.Decode(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("decode: %v\njson: %s", err, buf.String())
		}
		if back.String() != d.String() {
			t.Fatalf("round trip changed derivation:\n in  %s\n out %s", d, back)
		}
		// Derived expressions must match exactly.
		a, err := d.Derive()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Derive()
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("round trip changed derived tree:\n in  %s\n out %s", a, b)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	g := fig3Grammar()
	if _, err := g.Decode(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := g.Decode(strings.NewReader(`{"elem":"nope"}`)); err == nil {
		t.Error("unknown elementary tree accepted")
	}
	// A β-tree at the root is structurally invalid.
	if _, err := g.Decode(strings.NewReader(`{"elem":"beta:fig3","lexemes":["1.5"]}`)); err == nil {
		t.Error("β-rooted derivation accepted")
	}
}
