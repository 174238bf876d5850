package automation

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// Parser turns DSL rule text into validated Rules. Feature names are checked
// against the sensor vocabulary and opcodes against the instruction
// registry, so a parsed rule is guaranteed executable.
type Parser struct {
	registry *instr.Registry
}

// NewParser builds a parser validating opcodes against reg.
func NewParser(reg *instr.Registry) *Parser {
	return &Parser{registry: reg}
}

type parseState struct {
	toks []token
	i    int
	reg  *instr.Registry
}

func (p *parseState) cur() token { return p.toks[p.i] }
func (p *parseState) advance()   { p.i++ }
func (p *parseState) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parseState) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if t.kind != kind || (text != "" && t.text != text) {
		want := text
		if want == "" {
			want = kind.String()
		}
		return token{}, fmt.Errorf("automation: expected %s at %d, got %q", want, t.pos, t.text)
	}
	p.advance()
	return t, nil
}

// ParseRule parses one rule line:
//
//	WHEN <expr> THEN <op> @ <deviceID> [WITH k = v {, k = v}]
func (p *Parser) ParseRule(name, src string) (Rule, error) {
	toks, err := lex(src)
	if err != nil {
		return Rule{}, err
	}
	st := &parseState{toks: toks, reg: p.registry}
	if _, err := st.expect(tokKeyword, "WHEN"); err != nil {
		return Rule{}, err
	}
	cond, err := st.parseOr()
	if err != nil {
		return Rule{}, err
	}
	var dwell time.Duration
	if st.at(tokKeyword, "FOR") {
		st.advance()
		dwell, err = st.parseDuration()
		if err != nil {
			return Rule{}, err
		}
	}
	if _, err := st.expect(tokKeyword, "THEN"); err != nil {
		return Rule{}, err
	}
	action, err := st.parseAction()
	if err != nil {
		return Rule{}, err
	}
	if _, err := st.expect(tokEOF, ""); err != nil {
		return Rule{}, fmt.Errorf("automation: trailing input: %w", err)
	}
	return Rule{Name: name, Condition: cond, Dwell: dwell, Action: action}, nil
}

// parseDuration reads a Go-style duration literal after FOR. The lexer
// splits "5m30s" into a number and an identifier (or a single identifier
// when the text starts with a letter), so stitch tokens back together
// until THEN.
func (st *parseState) parseDuration() (time.Duration, error) {
	var text strings.Builder
	start := st.cur().pos
	for st.cur().kind == tokNumber || st.cur().kind == tokIdent {
		text.WriteString(st.cur().text)
		st.advance()
	}
	if text.Len() == 0 {
		return 0, fmt.Errorf("automation: expected duration after FOR at %d", start)
	}
	d, err := time.ParseDuration(text.String())
	if err != nil {
		return 0, fmt.Errorf("automation: bad duration %q at %d: %v", text.String(), start, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("automation: negative duration %q at %d", text.String(), start)
	}
	return d, nil
}

// ParseExpr parses a bare condition expression, the entry point of the
// parser's expression tests and fuzz target.
func (p *Parser) ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	st := &parseState{toks: toks, reg: p.registry}
	e, err := st.parseOr()
	if err != nil {
		return nil, err
	}
	if _, err := st.expect(tokEOF, ""); err != nil {
		return nil, fmt.Errorf("automation: trailing input: %w", err)
	}
	return e, nil
}

func (st *parseState) parseOr() (Expr, error) {
	l, err := st.parseAnd()
	if err != nil {
		return nil, err
	}
	for st.at(tokKeyword, "OR") {
		st.advance()
		r, err := st.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (st *parseState) parseAnd() (Expr, error) {
	l, err := st.parseUnary()
	if err != nil {
		return nil, err
	}
	for st.at(tokKeyword, "AND") {
		st.advance()
		r, err := st.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (st *parseState) parseUnary() (Expr, error) {
	if st.at(tokKeyword, "NOT") {
		st.advance()
		e, err := st.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if st.at(tokOperator, "(") {
		st.advance()
		e, err := st.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := st.expect(tokOperator, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return st.parseCompare()
}

func (st *parseState) parseCompare() (Expr, error) {
	identTok, err := st.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	feat, known := sensor.ParseFeature(identTok.text)
	if !known {
		return nil, fmt.Errorf("automation: unknown feature %q at %d", identTok.text, identTok.pos)
	}
	opTok := st.cur()
	if opTok.kind != tokOperator {
		return nil, fmt.Errorf("automation: expected comparison operator at %d, got %q", opTok.pos, opTok.text)
	}
	var op CmpOp
	switch opTok.text {
	case "==", "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, fmt.Errorf("automation: bad comparison operator %q at %d", opTok.text, opTok.pos)
	}
	st.advance()
	val, err := st.parseLiteral(sensor.MustDescribe(feat))
	if err != nil {
		return nil, err
	}
	cmp := &Compare{Feature: feat, Op: op, Value: val}
	// Reject ordered comparisons on unordered types at parse time.
	if val.Type() != sensor.TypeNumber && op != OpEq && op != OpNe {
		return nil, fmt.Errorf("automation: operator %s invalid for %s feature %q",
			op, val.Type(), feat)
	}
	return cmp, nil
}

func (st *parseState) parseLiteral(desc sensor.Descriptor) (sensor.Value, error) {
	t := st.cur()
	switch {
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		st.advance()
		return sensor.Bool(t.text == "TRUE"), nil
	case t.kind == tokNumber:
		st.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return sensor.Value{}, fmt.Errorf("automation: bad number %q at %d", t.text, t.pos)
		}
		return sensor.Number(f), nil
	case t.kind == tokString || t.kind == tokIdent:
		st.advance()
		// Validate against the feature's label domain when known.
		if desc.Type == sensor.TypeLabel {
			for _, l := range desc.Labels {
				if l == t.text {
					return sensor.Label(t.text), nil
				}
			}
			return sensor.Value{}, fmt.Errorf("automation: label %q outside domain of %q", t.text, desc.Feature)
		}
		return sensor.Label(t.text), nil
	default:
		return sensor.Value{}, fmt.Errorf("automation: expected literal at %d, got %q", t.pos, t.text)
	}
}

func (st *parseState) parseAction() (Action, error) {
	opTok, err := st.expect(tokIdent, "")
	if err != nil {
		return Action{}, err
	}
	if st.reg != nil {
		if _, ok := st.reg.Lookup(opTok.text); !ok {
			return Action{}, fmt.Errorf("automation: unknown opcode %q at %d", opTok.text, opTok.pos)
		}
	}
	if _, err := st.expect(tokOperator, "@"); err != nil {
		return Action{}, err
	}
	devTok, err := st.expect(tokIdent, "")
	if err != nil {
		return Action{}, err
	}
	action := Action{Op: opTok.text, DeviceID: devTok.text}
	if st.at(tokKeyword, "WITH") {
		st.advance()
		action.Args = make(map[string]any)
		for {
			keyTok, err := st.expect(tokIdent, "")
			if err != nil {
				return Action{}, err
			}
			if _, err := st.expect(tokOperator, "="); err != nil {
				return Action{}, err
			}
			valTok := st.cur()
			switch valTok.kind {
			case tokNumber:
				f, err := strconv.ParseFloat(valTok.text, 64)
				if err != nil {
					return Action{}, fmt.Errorf("automation: bad arg number %q", valTok.text)
				}
				action.Args[keyTok.text] = f
			case tokString, tokIdent:
				action.Args[keyTok.text] = valTok.text
			case tokKeyword:
				switch valTok.text {
				case "TRUE":
					action.Args[keyTok.text] = true
				case "FALSE":
					action.Args[keyTok.text] = false
				default:
					return Action{}, fmt.Errorf("automation: bad arg value %q", valTok.text)
				}
			default:
				return Action{}, fmt.Errorf("automation: bad arg value %q", valTok.text)
			}
			st.advance()
			if !st.at(tokOperator, ",") {
				break
			}
			st.advance()
		}
	}
	return action, nil
}
