package tquel

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString // double-quoted
	tokOp     // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifiers lowercased; strings unquoted
	pos  int    // byte offset in the input, for error messages
}

// lexer tokenizes a TQuel statement. Identifiers and keywords are
// case-insensitive (lowercased in the token); string constants keep case.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// A token takes two and a half to three bytes of source in the
	// statements the benchmark runs, so one allocation usually holds them
	// all; a long script grows the slice as before.
	l := &lexer{src: src, toks: make([]token, 0, min(len(src)/2, 1024)+2)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent(start)
		case c >= '0' && c <= '9':
			if err := l.lexNumber(start); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		default:
			if err := l.lexOp(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*' {
			// Quel block comment.
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// Identifiers are ASCII. The lexer walks bytes, so a byte-at-a-time rune
// conversion would read high bytes as Latin-1 letters — and the ToLower in
// lexIdent would then fold the invalid UTF-8 into U+FFFD, producing a token
// that no longer matches the input.
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.emit(tokIdent, strings.ToLower(l.src[start:l.pos]), start)
}

func (l *lexer) lexNumber(start int) error {
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			isFloat = true
			l.pos++
			continue
		}
		break
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	if l.pos < len(l.src) && isIdentStart(rune(l.src[l.pos])) {
		return fmt.Errorf("tquel: malformed number at offset %d", start)
	}
	l.emit(kind, l.src[start:l.pos], start)
	return nil
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	// Without a backslash before the closing quote the constant is a slice
	// of the source.
	if i := strings.IndexAny(l.src[l.pos:], `"\`); i >= 0 && l.src[l.pos+i] == '"' {
		l.emit(tokString, l.src[l.pos:l.pos+i], start)
		l.pos += i + 1
		return nil
	}
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			l.emit(tokString, b.String(), start)
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("tquel: unterminated string constant at offset %d", start)
}

// twoCharOps are recognized before single-character operators.
var twoCharOps = []string{"!=", "<=", ">="}

var oneCharOps = "=<>+-*/(),."

func (l *lexer) lexOp(start int) error {
	rest := l.src[l.pos:]
	for _, op := range twoCharOps {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			l.emit(tokOp, op, start)
			return nil
		}
	}
	c := l.src[l.pos]
	if strings.IndexByte(oneCharOps, c) >= 0 {
		l.pos++
		l.emit(tokOp, l.src[start:l.pos], start)
		return nil
	}
	return fmt.Errorf("tquel: unexpected character %q at offset %d", c, start)
}
