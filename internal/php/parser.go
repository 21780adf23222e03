package php

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse compiles PHP source into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{funcs: map[string]*funcDecl{}}
	for !p.at(tEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if fd, ok := s.(*funcDecl); ok {
			if _, dup := prog.funcs[fd.name]; dup {
				return nil, fmt.Errorf("php: line %d: function %s redeclared", fd.line, fd.name)
			}
			prog.funcs[fd.name] = fd
			continue
		}
		prog.stmts = append(prog.stmts, s)
	}
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) line() int   { return p.cur().line }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, fmt.Errorf("php: line %d: expected %q, found %s", p.line(), text, p.cur())
	}
	return p.next(), nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.at(tIdent, kw)
}

// statement parses one statement (or function declaration).
func (p *parser) statement() (stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tInlineHTML:
		p.next()
		return &inlineHTMLStmt{html: t.text}, nil
	case p.isKeyword("echo"):
		return p.echoStatement()
	case p.isKeyword("if"):
		return p.ifStatement()
	case p.isKeyword("while"):
		return p.whileStatement()
	case p.isKeyword("for"):
		return p.forStatement()
	case p.isKeyword("foreach"):
		return p.foreachStatement()
	case p.isKeyword("function"):
		return p.functionDecl()
	case p.isKeyword("return"):
		line := p.next().line
		if p.accept(tOp, ";") {
			return &returnStmt{line: line}, nil
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tOp, ";"); err != nil {
			return nil, err
		}
		return &returnStmt{val: e, line: line}, nil
	case p.isKeyword("break"):
		line := p.next().line
		if _, err := p.expect(tOp, ";"); err != nil {
			return nil, err
		}
		return &breakStmt{line: line}, nil
	case p.isKeyword("continue"):
		line := p.next().line
		if _, err := p.expect(tOp, ";"); err != nil {
			return nil, err
		}
		return &continueStmt{line: line}, nil
	default:
		line := p.line()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tOp, ";"); err != nil {
			return nil, err
		}
		return &exprStmt{e: e, line: line}, nil
	}
}

func (p *parser) echoStatement() (stmt, error) {
	line := p.next().line // 'echo'
	var args []expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if !p.accept(tOp, ",") {
			break
		}
	}
	if _, err := p.expect(tOp, ";"); err != nil {
		return nil, err
	}
	return &echoStmt{args: args, line: line}, nil
}

func (p *parser) block() ([]stmt, error) {
	if _, err := p.expect(tOp, "{"); err != nil {
		return nil, err
	}
	var out []stmt
	for !p.at(tOp, "}") {
		if p.at(tEOF, "") {
			return nil, fmt.Errorf("php: unexpected EOF in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.next() // '}'
	return out, nil
}

func (p *parser) ifStatement() (stmt, error) {
	line := p.next().line // 'if'
	if _, err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &ifStmt{cond: cond, then: then, line: line}
	switch {
	case p.isKeyword("elseif"):
		els, err := p.ifStatement()
		if err != nil {
			return nil, err
		}
		node.els = []stmt{els}
	case p.isKeyword("else"):
		p.next()
		if p.isKeyword("if") {
			els, err := p.ifStatement()
			if err != nil {
				return nil, err
			}
			node.els = []stmt{els}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			node.els = els
		}
	}
	return node, nil
}

func (p *parser) whileStatement() (stmt, error) {
	line := p.next().line
	if _, err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &whileStmt{cond: cond, body: body, line: line}, nil
}

func (p *parser) forStatement() (stmt, error) {
	line := p.next().line
	if _, err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	node := &forStmt{line: line}
	var err error
	if !p.at(tOp, ";") {
		if node.init, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tOp, ";"); err != nil {
		return nil, err
	}
	if !p.at(tOp, ";") {
		if node.cond, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tOp, ";"); err != nil {
		return nil, err
	}
	if !p.at(tOp, ")") {
		if node.post, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	if node.body, err = p.block(); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) foreachStatement() (stmt, error) {
	line := p.next().line
	if _, err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	subject, err := p.expression()
	if err != nil {
		return nil, err
	}
	if !p.accept(tIdent, "as") {
		return nil, fmt.Errorf("php: line %d: foreach requires 'as'", p.line())
	}
	first, err := p.expect(tVar, "")
	if err != nil {
		return nil, err
	}
	node := &foreachStmt{subject: subject, valVar: first.text, line: line}
	if p.accept(tOp, "=>") {
		second, err := p.expect(tVar, "")
		if err != nil {
			return nil, err
		}
		node.keyVar = first.text
		node.valVar = second.text
	}
	if _, err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node.body = body
	return node, nil
}

func (p *parser) functionDecl() (stmt, error) {
	line := p.next().line
	name, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tOp, ")") {
		v, err := p.expect(tVar, "")
		if err != nil {
			return nil, err
		}
		params = append(params, v.text)
		if !p.accept(tOp, ",") {
			break
		}
	}
	if _, err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcDecl{name: name.text, params: params, body: body, line: line}, nil
}

// --- Expressions, precedence climbing ---

// binaryPrec maps operators to precedence (higher binds tighter).
var binaryPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "===": 3, "!==": 3, "<": 3, ">": 3, "<=": 3, ">=": 3, "<=>": 3,
	".": 4, "+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) expression() (expr, error) {
	return p.assignment()
}

func (p *parser) assignment() (expr, error) {
	line := p.line()
	lhs, err := p.ternary()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", ".=", "+=", "-=", "*=", "/="} {
		if p.at(tOp, op) {
			switch lhs.(type) {
			case *varExpr, *indexExpr:
			default:
				return nil, fmt.Errorf("php: line %d: invalid assignment target", line)
			}
			p.next()
			rhs, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &assignExpr{target: lhs, op: op, value: rhs, line: line}, nil
		}
	}
	return lhs, nil
}

func (p *parser) ternary() (expr, error) {
	cond, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(tOp, "?") {
		return cond, nil
	}
	line := p.line()
	then, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOp, ":"); err != nil {
		return nil, err
	}
	els, err := p.expression()
	if err != nil {
		return nil, err
	}
	return &ternaryExpr{cond: cond, then: then, els: els, line: line}, nil
}

func (p *parser) binary(minPrec int) (expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tOp {
			return lhs, nil
		}
		prec, ok := binaryPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{op: t.text, l: lhs, r: rhs, line: t.line}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.cur()
	if t.kind == tOp && (t.text == "!" || t.text == "-") {
		p.next()
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: t.text, e: e, line: t.line}, nil
	}
	if t.kind == tOp && (t.text == "++" || t.text == "--") {
		p.next()
		e, err := p.postfix()
		if err != nil {
			return nil, err
		}
		return &incDecExpr{target: e, op: t.text, line: t.line}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tOp, "["):
			line := p.next().line
			if p.accept(tOp, "]") {
				e = &indexExpr{subject: e, key: nil, line: line} // $a[] append form
				continue
			}
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tOp, "]"); err != nil {
				return nil, err
			}
			e = &indexExpr{subject: e, key: key, line: line}
		case p.at(tOp, "++") || p.at(tOp, "--"):
			t := p.next()
			e = &incDecExpr{target: e, op: t.text, line: t.line}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("php: line %d: bad integer %q", t.line, t.text)
		}
		return &litExpr{val: Int(v)}, nil
	case tFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("php: line %d: bad float %q", t.line, t.text)
		}
		return &litExpr{val: floatV(v)}, nil
	case tString:
		p.next()
		return &litExpr{val: strV(t.text)}, nil
	case tVar:
		p.next()
		return &varExpr{name: t.text, line: t.line}, nil
	case tIdent:
		switch t.text {
		case "true":
			p.next()
			return &litExpr{val: boolV(true)}, nil
		case "false":
			p.next()
			return &litExpr{val: boolV(false)}, nil
		case "null":
			p.next()
			return &litExpr{}, nil
		case "array":
			p.next()
			if _, err := p.expect(tOp, "("); err != nil {
				return nil, err
			}
			return p.arrayItems(")")
		default:
			// Function call.
			p.next()
			if _, err := p.expect(tOp, "("); err != nil {
				return nil, err
			}
			var args []expr
			for !p.at(tOp, ")") {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tOp, ",") {
					break
				}
			}
			if _, err := p.expect(tOp, ")"); err != nil {
				return nil, err
			}
			return &callExpr{name: t.text, args: args, line: t.line}, nil
		}
	case tOp:
		switch t.text {
		case "(":
			p.next()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.next()
			return p.arrayItems("]")
		}
	}
	return nil, fmt.Errorf("php: line %d: unexpected token %s", t.line, t)
}

// arrayItems parses the body of [...] or array(...), up to the closer.
func (p *parser) arrayItems(closer string) (expr, error) {
	lit := &arrayLit{line: p.line()}
	for !p.at(tOp, closer) {
		first, err := p.expression()
		if err != nil {
			return nil, err
		}
		if p.accept(tOp, "=>") {
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			lit.keys = append(lit.keys, first)
			lit.vals = append(lit.vals, val)
		} else {
			lit.keys = append(lit.keys, nil)
			lit.vals = append(lit.vals, first)
		}
		if !p.accept(tOp, ",") {
			break
		}
	}
	if _, err := p.expect(tOp, closer); err != nil {
		return nil, err
	}
	return lit, nil
}
