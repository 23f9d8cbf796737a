// Package rbtree implements the augmented red-black tree the Linux CFS
// keeps its runqueue in: tasks ordered by virtual runtime with a cached
// leftmost node, so the scheduler's pick-next is O(1) and insert/erase are
// O(log n). The reproduction's runqueues are tiny (an attacker, a victim,
// a few noise threads), but the structure is part of the substrate the
// paper's scheduler analysis rests on, and it keeps the simulation honest
// for experiments that flood the runqueue.
//
// Keys are (key, id) pairs: id breaks ties deterministically, mirroring
// the kernel's stable ordering of equal-vruntime entities.
//
// The tree is generic over its element type so items are stored inline in
// the nodes (no interface boxing per insert), and detached nodes go on a
// freelist — the enqueue/dequeue churn of a steady-state scheduler performs
// no heap allocations.
package rbtree

// Item is an element stored in the tree.
type Item interface {
	// Key is the ordering key (vruntime).
	Key() int64
	// ID breaks key ties deterministically.
	ID() int
}

type color bool

const (
	red   color = false
	black color = true
)

type node[T Item] struct {
	item                T
	left, right, parent *node[T]
	color               color
}

// Tree is an intrusive-style red-black tree with leftmost caching.
type Tree[T Item] struct {
	root     *node[T]
	leftmost *node[T]
	// free chains detached nodes (via right) for reuse by Insert.
	free *node[T]
	size int
}

// New returns an empty tree.
func New[T Item]() *Tree[T] { return &Tree[T]{} }

// Len returns the number of stored items.
func (t *Tree[T]) Len() int { return t.size }

// less orders items by (Key, ID).
func less[T Item](a, b T) bool {
	if a.Key() != b.Key() {
		return a.Key() < b.Key()
	}
	return a.ID() < b.ID()
}

// Min returns the leftmost (smallest) item; ok is false on an empty tree.
func (t *Tree[T]) Min() (item T, ok bool) {
	if t.leftmost == nil {
		return item, false
	}
	return t.leftmost.item, true
}

// newNode takes a node off the freelist, or allocates one.
func (t *Tree[T]) newNode(item T) *node[T] {
	if n := t.free; n != nil {
		t.free = n.right
		n.right = nil
		n.item = item
		return n
	}
	return &node[T]{item: item}
}

// releaseNode clears a detached node and chains it on the freelist.
func (t *Tree[T]) releaseNode(n *node[T]) {
	var zero T
	*n = node[T]{item: zero, right: t.free}
	t.free = n
}

// Insert adds item to the tree. Inserting the same item twice corrupts the
// tree; callers track membership.
func (t *Tree[T]) Insert(item T) {
	n := t.newNode(item)
	// BST insert.
	var parent *node[T]
	cur := t.root
	wentLeftAlways := true
	for cur != nil {
		parent = cur
		if less(item, cur.item) {
			cur = cur.left
		} else {
			cur = cur.right
			wentLeftAlways = false
		}
	}
	n.parent = parent
	switch {
	case parent == nil:
		t.root = n
	case less(item, parent.item):
		parent.left = n
	default:
		parent.right = n
	}
	if wentLeftAlways {
		t.leftmost = n
	}
	t.size++
	t.insertFixup(n)
}

// Delete removes the node holding item (matched by Key+ID identity). It
// reports whether the item was found.
func (t *Tree[T]) Delete(item T) bool {
	n := t.find(item)
	if n == nil {
		return false
	}
	if n == t.leftmost {
		t.leftmost = successor(n)
	}
	t.deleteNode(n)
	t.size--
	t.releaseNode(n)
	return true
}

// Contains reports whether item (by Key+ID) is in the tree.
func (t *Tree[T]) Contains(item T) bool { return t.find(item) != nil }

// Each visits items in ascending order.
func (t *Tree[T]) Each(fn func(T) bool) {
	for n := t.leftmost; n != nil; n = successor(n) {
		if !fn(n.item) {
			return
		}
	}
}

// Items returns all items in ascending order (for tests and traces).
func (t *Tree[T]) Items() []T {
	out := make([]T, 0, t.size)
	t.Each(func(i T) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Clear releases every node to the freelist and empties the tree. Storage
// is retained: a cleared tree re-fills without heap allocations up to its
// previous high-water mark.
func (t *Tree[T]) Clear() {
	clearSub(t, t.root)
	t.root = nil
	t.leftmost = nil
	t.size = 0
}

func clearSub[T Item](t *Tree[T], n *node[T]) {
	if n == nil {
		return
	}
	clearSub(t, n.left)
	clearSub(t, n.right)
	t.releaseNode(n)
}

// find locates the node with the same (Key, ID) as item.
func (t *Tree[T]) find(item T) *node[T] {
	cur := t.root
	for cur != nil {
		switch {
		case less(item, cur.item):
			cur = cur.left
		case less(cur.item, item):
			cur = cur.right
		default:
			return cur
		}
	}
	return nil
}

func successor[T Item](n *node[T]) *node[T] {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	for n.parent != nil && n == n.parent.right {
		n = n.parent
	}
	return n.parent
}

func (t *Tree[T]) rotateLeft(x *node[T]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[T]) rotateRight(x *node[T]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[T]) insertFixup(z *node[T]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

// transplant replaces subtree u with subtree v.
func (t *Tree[T]) transplant(u, v *node[T]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[T]) deleteNode(z *node[T]) {
	y := z
	yColor := y.color
	var x *node[T]
	var xParent *node[T]
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFixup(x, xParent)
	}
}

func (t *Tree[T]) deleteFixup(x *node[T], parent *node[T]) {
	for x != t.root && (x == nil || x.color == black) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if (w.left == nil || w.left.color == black) && (w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if w.right == nil || w.right.color == black {
				if w.left != nil {
					w.left.color = black
				}
				w.color = red
				t.rotateRight(w)
				w = parent.right
			}
			w.color = parent.color
			parent.color = black
			if w.right != nil {
				w.right.color = black
			}
			t.rotateLeft(parent)
			x = t.root
			parent = nil
		} else {
			w := parent.left
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if (w.left == nil || w.left.color == black) && (w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if w.left == nil || w.left.color == black {
				if w.right != nil {
					w.right.color = black
				}
				w.color = red
				t.rotateLeft(w)
				w = parent.left
			}
			w.color = parent.color
			parent.color = black
			if w.left != nil {
				w.left.color = black
			}
			t.rotateRight(parent)
			x = t.root
			parent = nil
		}
	}
	if x != nil {
		x.color = black
	}
}

// validate checks the red-black invariants; tests use it.
func (t *Tree[T]) validate() error {
	if t.root == nil {
		if t.leftmost != nil || t.size != 0 {
			return errInvariant("empty tree with cached state")
		}
		return nil
	}
	if t.root.color != black {
		return errInvariant("root not black")
	}
	// Leftmost cache correct?
	n := t.root
	for n.left != nil {
		n = n.left
	}
	if n != t.leftmost {
		return errInvariant("leftmost cache stale")
	}
	_, err := checkNode(t.root)
	return err
}

type errInvariant string

func (e errInvariant) Error() string { return "rbtree: " + string(e) }

// checkNode returns the black-height of the subtree.
func checkNode[T Item](n *node[T]) (int, error) {
	if n == nil {
		return 1, nil
	}
	if n.color == red {
		if (n.left != nil && n.left.color == red) || (n.right != nil && n.right.color == red) {
			return 0, errInvariant("red node with red child")
		}
	}
	if n.left != nil {
		if n.left.parent != n {
			return 0, errInvariant("broken parent link")
		}
		if !less(n.left.item, n.item) {
			return 0, errInvariant("left ordering violated")
		}
	}
	if n.right != nil {
		if n.right.parent != n {
			return 0, errInvariant("broken parent link")
		}
		if !less(n.item, n.right.item) {
			return 0, errInvariant("right ordering violated")
		}
	}
	lh, err := checkNode(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errInvariant("black height mismatch")
	}
	if n.color == black {
		lh++
	}
	return lh, nil
}
