package rex

import "fmt"

// The parser produces a small AST rather than emitting NFA states
// directly, so the grammar has a single definition shared by the two
// consumers: Thompson compilation (compile.go logic in rex.go) and the
// template analysis behind literal-factor extraction and Match's literal
// gate (factors.go). Both walk the same tree, which keeps the
// prefilter's view of a pattern structurally identical to what the
// matcher executes.

type astOp uint8

const (
	astEmpty astOp = iota // ε — matches the empty string
	astChar               // one literal byte
	astClass              // one byte from a class
	astAny                // '.' — any byte except newline
	astBOL                // '^'
	astEOL                // '$'
	astCat                // concatenation of subs
	astAlt                // two-way alternation subs[0] | subs[1]
	astStar               // subs[0]*
	astPlus               // subs[0]+
	astQuest              // subs[0]?
)

type astNode struct {
	op    astOp
	c     byte
	class *byteClass
	subs  []*astNode
}

// parsePattern parses a full pattern into an AST.
func parsePattern(src string) (*astNode, error) {
	p := &parser{src: src}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("%w: unexpected %q at %d", ErrSyntax, p.src[p.pos], p.pos)
	}
	return n, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }

// parseAlt := parseConcat ('|' parseConcat)*
func (p *parser) parseAlt() (*astNode, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek() == '|' {
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		left = &astNode{op: astAlt, subs: []*astNode{left, right}}
	}
	return left, nil
}

// parseConcat := parseRepeat*
func (p *parser) parseConcat() (*astNode, error) {
	var subs []*astNode
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		next, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, next)
	}
	switch len(subs) {
	case 0:
		return &astNode{op: astEmpty}, nil
	case 1:
		return subs[0], nil
	}
	return &astNode{op: astCat, subs: subs}, nil
}

// parseRepeat := parseAtom ('*' | '+' | '?')?
func (p *parser) parseRepeat() (*astNode, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.eof() {
		return atom, nil
	}
	switch p.peek() {
	case '*':
		p.pos++
		return &astNode{op: astStar, subs: []*astNode{atom}}, nil
	case '+':
		p.pos++
		return &astNode{op: astPlus, subs: []*astNode{atom}}, nil
	case '?':
		p.pos++
		return &astNode{op: astQuest, subs: []*astNode{atom}}, nil
	}
	return atom, nil
}

// parseAtom := '(' alt ')' | '[' class ']' | '.' | '^' | '$' | escaped | literal
func (p *parser) parseAtom() (*astNode, error) {
	if p.eof() {
		return nil, fmt.Errorf("%w: unexpected end of pattern", ErrSyntax)
	}
	switch c := p.peek(); c {
	case '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, fmt.Errorf("%w: missing ')'", ErrSyntax)
		}
		p.pos++
		return inner, nil
	case '[':
		bc, err := p.parseClassSet()
		if err != nil {
			return nil, err
		}
		return &astNode{op: astClass, class: bc}, nil
	case '.':
		p.pos++
		return &astNode{op: astAny}, nil
	case '^':
		p.pos++
		return &astNode{op: astBOL}, nil
	case '$':
		p.pos++
		return &astNode{op: astEOL}, nil
	case '*', '+', '?':
		return nil, fmt.Errorf("%w: dangling quantifier at %d", ErrSyntax, p.pos)
	case ')':
		return nil, fmt.Errorf("%w: unmatched ')'", ErrSyntax)
	case '\\':
		p.pos++
		if p.eof() {
			return nil, fmt.Errorf("%w: trailing backslash", ErrSyntax)
		}
		return p.parseEscape()
	default:
		p.pos++
		return &astNode{op: astChar, c: c}, nil
	}
}

func (p *parser) parseEscape() (*astNode, error) {
	c := p.src[p.pos]
	p.pos++
	if cls := metaClass(c); cls != nil {
		return &astNode{op: astClass, class: cls}, nil
	}
	return &astNode{op: astChar, c: unescape(c)}, nil
}

// metaClass returns the class for \d \D \w \W \s \S, or nil for literal
// escapes.
func metaClass(c byte) *byteClass {
	mk := func(neg bool, fill func(*byteClass)) *byteClass {
		bc := &byteClass{neg: neg}
		fill(bc)
		return bc
	}
	digits := func(bc *byteClass) { bc.addRange('0', '9') }
	words := func(bc *byteClass) {
		bc.addRange('a', 'z')
		bc.addRange('A', 'Z')
		bc.addRange('0', '9')
		bc.add('_')
	}
	spaces := func(bc *byteClass) {
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			bc.add(b)
		}
	}
	switch c {
	case 'd':
		return mk(false, digits)
	case 'D':
		return mk(true, digits)
	case 'w':
		return mk(false, words)
	case 'W':
		return mk(true, words)
	case 's':
		return mk(false, spaces)
	case 'S':
		return mk(true, spaces)
	}
	return nil
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	}
	return c
}

func (p *parser) parseClassSet() (*byteClass, error) {
	p.pos++ // consume '['
	bc := &byteClass{}
	if !p.eof() && p.peek() == '^' {
		bc.neg = true
		p.pos++
	}
	first := true
	for {
		if p.eof() {
			return nil, fmt.Errorf("%w: missing ']'", ErrSyntax)
		}
		c := p.peek()
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		p.pos++
		if c == '\\' {
			if p.eof() {
				return nil, fmt.Errorf("%w: trailing backslash in class", ErrSyntax)
			}
			e := p.src[p.pos]
			p.pos++
			if mc := metaClass(e); mc != nil {
				// Merge the meta class bits (negated metas inside classes
				// are expanded).
				for b := 0; b < 256; b++ {
					if mc.contains(byte(b)) {
						bc.add(byte(b))
					}
				}
				continue
			}
			c = unescape(e)
		}
		// Range?
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++
			hi := p.src[p.pos]
			p.pos++
			if hi == '\\' {
				if p.eof() {
					return nil, fmt.Errorf("%w: trailing backslash in class", ErrSyntax)
				}
				hi = unescape(p.src[p.pos])
				p.pos++
			}
			if hi < c {
				return nil, fmt.Errorf("%w: inverted range %c-%c", ErrSyntax, c, hi)
			}
			bc.addRange(c, hi)
			continue
		}
		bc.add(c)
	}
	return bc, nil
}
