package tag

import (
	"fmt"
	"sort"
	"strings"

	"gmr/internal/expr"
)

// DerivNode is a node of a TAG derivation tree in the paper's
// restricted-substitution formulation (Section III-A2):
//
//   - the root node is labeled with an α-tree (the input process);
//   - every other node is labeled with a β-tree and the address (within its
//     parent's elementary tree) where the adjunction took place;
//   - each node carries a list of lexemes — childless α-trees substituted
//     into the open substitution sites of its elementary tree, in the
//     pre-order of those sites.
//
// Lexeme expressions are owned by the derivation tree (mutable per
// individual, e.g. by Gaussian mutation); elementary trees are shared,
// immutable templates.
type DerivNode struct {
	Elem     *ElemTree
	Addr     Address // address in the parent's elementary tree; nil for the root
	Lexemes  []*expr.Node
	Children []*DerivNode
}

// String renders the derivation tree compactly for diagnostics:
// elem-name[@addr](lexemes){children}.
func (d *DerivNode) String() string {
	var b strings.Builder
	d.write(&b)
	return b.String()
}

func (d *DerivNode) write(b *strings.Builder) {
	b.WriteString(d.Elem.Name)
	if len(d.Addr) > 0 || d.Elem.Kind == Beta {
		b.WriteByte('@')
		b.WriteString(d.Addr.String())
	}
	if len(d.Lexemes) > 0 {
		b.WriteByte('(')
		for i, l := range d.Lexemes {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.String())
		}
		b.WriteByte(')')
	}
	if len(d.Children) > 0 {
		b.WriteByte('{')
		for i, c := range d.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.write(b)
		}
		b.WriteByte('}')
	}
}

// Clone returns a deep copy of the derivation tree (elementary trees are
// shared; addresses and lexemes are copied).
func (d *DerivNode) Clone() *DerivNode {
	if d == nil {
		return nil
	}
	cp := &DerivNode{Elem: d.Elem, Addr: d.Addr.Clone()}
	if d.Lexemes != nil {
		cp.Lexemes = make([]*expr.Node, len(d.Lexemes))
		for i, l := range d.Lexemes {
			cp.Lexemes[i] = l.Clone()
		}
	}
	if d.Children != nil {
		cp.Children = make([]*DerivNode, len(d.Children))
		for i, c := range d.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Size returns the number of nodes in the derivation tree (the paper's
// chromosome size).
func (d *DerivNode) Size() int {
	if d == nil {
		return 0
	}
	s := 1
	for _, c := range d.Children {
		s += c.Size()
	}
	return s
}

// Walk visits every derivation node in pre-order together with its parent
// (nil for the root). Returning false from fn skips the node's subtree.
func (d *DerivNode) Walk(fn func(node, parent *DerivNode) bool) {
	var rec func(n, p *DerivNode)
	rec = func(n, p *DerivNode) {
		if !fn(n, p) {
			return
		}
		for _, c := range n.Children {
			rec(c, n)
		}
	}
	rec(d, nil)
}

// Validate checks the derivation-tree invariants against the grammar
// mechanics: the root is an α-tree, all other nodes are β-trees whose root
// symbol matches the label at their adjunction address, no two siblings
// occupy the same address, and every node carries exactly one lexeme per
// substitution site of its elementary tree.
func (d *DerivNode) Validate() error {
	var rec func(n *DerivNode, isRoot bool) error
	rec = func(n *DerivNode, isRoot bool) error {
		if n.Elem == nil {
			return fmt.Errorf("tag: derivation node with nil elementary tree")
		}
		if isRoot && n.Elem.Kind != Alpha {
			return fmt.Errorf("tag: derivation root is %s tree %q, want α", n.Elem.Kind, n.Elem.Name)
		}
		if !isRoot && n.Elem.Kind != Beta {
			return fmt.Errorf("tag: non-root derivation node is %s tree %q, want β", n.Elem.Kind, n.Elem.Name)
		}
		sites := n.Elem.SubSiteSyms()
		if len(sites) != len(n.Lexemes) {
			return fmt.Errorf("tag: node %q has %d lexemes for %d substitution sites",
				n.Elem.Name, len(n.Lexemes), len(sites))
		}
		for i, l := range n.Lexemes {
			if l == nil {
				return fmt.Errorf("tag: node %q lexeme %d is nil", n.Elem.Name, i)
			}
			if !l.Complete() {
				return fmt.Errorf("tag: node %q lexeme %d is not a completed tree", n.Elem.Name, i)
			}
		}
		seen := map[string]bool{}
		for _, c := range n.Children {
			sym, err := SymAt(n.Elem.Root, c.Addr)
			if err != nil {
				return fmt.Errorf("tag: child %q of %q: %v", c.Elem.Name, n.Elem.Name, err)
			}
			if sym != c.Elem.RootSym {
				return fmt.Errorf("tag: child %q (root %q) adjoined at %q address %s labeled %q",
					c.Elem.Name, c.Elem.RootSym, n.Elem.Name, c.Addr, sym)
			}
			key := c.Addr.String()
			if seen[key] {
				return fmt.Errorf("tag: two children of %q adjoined at address %s", n.Elem.Name, c.Addr)
			}
			seen[key] = true
			if err := rec(c, false); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(d, true)
}

// Derive builds the derived expression tree encoded by the derivation tree:
// it clones the node's elementary tree, substitutes the lexemes into its
// substitution sites, recursively derives each child and adjoins the result
// at the child's address (deepest addresses first, so ancestor adjunctions
// see descendant revisions in their displaced subtrees), and returns the
// resulting expression.
func (d *DerivNode) Derive() (*expr.Node, error) {
	t := d.Elem.Root.Clone()

	// Substitution: replace each substitution site with its lexeme.
	// Substitution happens before adjunction: sites are leaves, so
	// replacing them never invalidates adjunction addresses. The clone has
	// the template's shape, so the template's cached site addresses apply.
	sites := d.Elem.SubSiteAddrs()
	if len(sites) != len(d.Lexemes) {
		return nil, fmt.Errorf("tag: %q: %d lexemes for %d substitution sites",
			d.Elem.Name, len(d.Lexemes), len(sites))
	}
	for i, addr := range sites {
		site, err := NodeAt(t, addr)
		if err != nil {
			return nil, err
		}
		lex := d.Lexemes[i].Clone()
		// The site's label transfers to the lexeme so that the address
		// remains adjoinable: extenders can wrap a substituted argument,
		// growing nested subexpressions.
		lex.Sym = site.Sym
		t, err = ReplaceAt(t, addr, lex)
		if err != nil {
			return nil, err
		}
	}

	// Adjunction, deepest addresses first so shallower (ancestor)
	// adjunctions displace already-revised subtrees. Most nodes have at
	// most one child; ordering (and the copy it needs) only matters from
	// two up.
	children := d.Children
	if len(children) > 1 {
		children = append([]*DerivNode(nil), d.Children...)
		sort.SliceStable(children, func(i, j int) bool {
			return len(children[i].Addr) > len(children[j].Addr)
		})
	}
	for _, c := range children {
		sub, err := c.Derive()
		if err != nil {
			return nil, err
		}
		t, err = Adjoin(t, c.Addr, sub, c.Elem.RootSym)
		if err != nil {
			return nil, fmt.Errorf("tag: adjoining %q: %v", c.Elem.Name, err)
		}
	}
	return t, nil
}

// Adjoin performs the TAG adjoining operation: the subtree of tree at addr
// (which must be labeled footSym) is disconnected, aux — a derived auxiliary
// tree whose foot carries footSym — is attached in its place, and the
// disconnected subtree is attached at aux's foot position. Adjoin mutates
// tree and aux and returns the new root.
func Adjoin(tree *expr.Node, addr Address, aux *expr.Node, footSym string) (*expr.Node, error) {
	target, err := NodeAt(tree, addr)
	if err != nil {
		return nil, err
	}
	if target.Sym != footSym {
		return nil, fmt.Errorf("tag: adjunction target at %s labeled %q, want %q", addr, target.Sym, footSym)
	}
	// Locate the foot in aux.
	var footParent *expr.Node
	footIdx := -1
	footIsRoot := false
	if aux.Kind == expr.Foot {
		footIsRoot = true
	} else {
		aux.WalkParents(func(p *expr.Node, i int) bool {
			if footIdx >= 0 {
				return false
			}
			if p.Kids[i].Kind == expr.Foot && p.Kids[i].Sym == footSym {
				footParent, footIdx = p, i
				return false
			}
			return true
		})
	}
	switch {
	case footIsRoot:
		// Degenerate auxiliary tree (just a foot): adjunction is identity.
		return tree, nil
	case footIdx < 0:
		return nil, fmt.Errorf("tag: auxiliary tree has no foot labeled %q", footSym)
	}
	footParent.Kids[footIdx] = target
	return ReplaceAt(tree, addr, aux)
}

// OpenAddress identifies an unoccupied adjunction address in a derivation
// tree: the derivation node, the address within its elementary tree, and
// the symbol at that address.
type OpenAddress struct {
	Node *DerivNode
	Addr Address
	Sym  string
}

// OpenAddresses returns every adjunction address in the derivation tree not
// already occupied by a child, across all derivation nodes. These are the
// legal points for the insertion local-search operator and for population
// initialization.
func (d *DerivNode) OpenAddresses() []OpenAddress {
	var out []OpenAddress
	d.Walk(func(n, _ *DerivNode) bool {
		// The template's address list is cached on the elementary tree;
		// children counts are small enough that a linear occupancy scan
		// beats materializing a map (and its string keys) per node.
		addrs, syms := n.Elem.AdjAddrs()
		for i, a := range addrs {
			occupied := false
			for _, c := range n.Children {
				if c.Addr.Equal(a) {
					occupied = true
					break
				}
			}
			if !occupied {
				out = append(out, OpenAddress{Node: n, Addr: a, Sym: syms[i]})
			}
		}
		return true
	})
	return out
}
