// Package token defines the lexical tokens of the OpenCL C subset accepted
// by the FlexCL frontend, together with source-position bookkeeping shared
// by the lexer, parser and diagnostics.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The token kinds. Layout mirrors go/token: literals first, bracketed by
// the marker constants IsLiteral reads, then operators, then keywords.
const (
	ILLEGAL Kind = iota
	EOF

	literalBeg
	IDENT     // hotspot
	INTLIT    // 123, 0x7f
	FLOATLIT  // 0.5f, 1e-3
	CHARLIT   // 'a'
	STRINGLIT // "..."
	literalEnd

	ADD    // +
	SUB    // -
	MUL    // *
	QUO    // /
	REM    // %
	AND    // &
	OR     // |
	XOR    // ^
	SHL    // <<
	SHR    // >>
	LAND   // &&
	LOR    // ||
	NOT    // !
	TILDE  // ~
	ASSIGN // =

	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	QUOASSIGN // /=
	REMASSIGN // %=
	ANDASSIGN // &=
	ORASSIGN  // |=
	XORASSIGN // ^=
	SHLASSIGN // <<=
	SHRASSIGN // >>=

	EQ  // ==
	NEQ // !=
	LT  // <
	GT  // >
	LEQ // <=
	GEQ // >=

	INC // ++
	DEC // --

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	QUESTION // ?
	DOT      // .
	ARROW    // ->

	KWKERNEL   // __kernel / kernel
	KWGLOBAL   // __global / global
	KWLOCAL    // __local / local
	KWCONSTANT // __constant / constant
	KWPRIVATE  // __private / private

	KWCONST    // const
	KWRESTRICT // restrict
	KWVOLATILE // volatile
	KWUNSIGNED // unsigned
	KWSIGNED   // signed
	KWSTRUCT   // struct
	KWTYPEDEF  // typedef

	KWVOID   // void
	KWBOOL   // bool
	KWCHAR   // char
	KWSHORT  // short
	KWINT    // int
	KWLONG   // long
	KWFLOAT  // float
	KWDOUBLE // double
	KWSIZET  // size_t

	KWIF       // if
	KWELSE     // else
	KWFOR      // for
	KWWHILE    // while
	KWDO       // do
	KWRETURN   // return
	KWBREAK    // break
	KWCONTINUE // continue
	KWSWITCH   // switch
	KWCASE     // case
	KWDEFAULT  // default

	KWATTRIBUTE // __attribute__
)

var kindNames = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "IDENT",
	INTLIT:    "INTLIT",
	FLOATLIT:  "FLOATLIT",
	CHARLIT:   "CHARLIT",
	STRINGLIT: "STRINGLIT",

	ADD: "+", SUB: "-", MUL: "*", QUO: "/", REM: "%",
	AND: "&", OR: "|", XOR: "^", SHL: "<<", SHR: ">>",
	LAND: "&&", LOR: "||", NOT: "!", TILDE: "~", ASSIGN: "=",
	ADDASSIGN: "+=", SUBASSIGN: "-=", MULASSIGN: "*=", QUOASSIGN: "/=",
	REMASSIGN: "%=", ANDASSIGN: "&=", ORASSIGN: "|=", XORASSIGN: "^=",
	SHLASSIGN: "<<=", SHRASSIGN: ">>=",
	EQ: "==", NEQ: "!=", LT: "<", GT: ">", LEQ: "<=", GEQ: ">=",
	INC: "++", DEC: "--",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", COMMA: ",", SEMI: ";", COLON: ":",
	QUESTION: "?", DOT: ".", ARROW: "->",

	KWKERNEL: "__kernel", KWGLOBAL: "__global", KWLOCAL: "__local",
	KWCONSTANT: "__constant", KWPRIVATE: "__private",
	KWCONST: "const", KWRESTRICT: "restrict", KWVOLATILE: "volatile",
	KWUNSIGNED: "unsigned", KWSIGNED: "signed", KWSTRUCT: "struct",
	KWTYPEDEF: "typedef",
	KWVOID:    "void", KWBOOL: "bool", KWCHAR: "char", KWSHORT: "short",
	KWINT: "int", KWLONG: "long", KWFLOAT: "float", KWDOUBLE: "double",
	KWSIZET: "size_t",
	KWIF:    "if", KWELSE: "else", KWFOR: "for", KWWHILE: "while",
	KWDO: "do", KWRETURN: "return", KWBREAK: "break",
	KWCONTINUE: "continue", KWSWITCH: "switch", KWCASE: "case",
	KWDEFAULT:   "default",
	KWATTRIBUTE: "__attribute__",
}

// String returns the human-readable spelling of the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsLiteral reports whether the kind is an identifier or a literal constant.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsAssign reports whether the kind is an assignment operator (including
// compound assignments such as +=).
func (k Kind) IsAssign() bool {
	return k == ASSIGN || (ADDASSIGN <= k && k <= SHRASSIGN)
}

// keywords maps the source spelling of every reserved word to its kind.
// OpenCL allows both the double-underscore and plain forms of the address
// space and kernel qualifiers.
var keywords = map[string]Kind{
	"__kernel": KWKERNEL, "kernel": KWKERNEL,
	"__global": KWGLOBAL, "global": KWGLOBAL,
	"__local": KWLOCAL, "local": KWLOCAL,
	"__constant": KWCONSTANT, "constant": KWCONSTANT,
	"__private": KWPRIVATE, "private": KWPRIVATE,
	"const": KWCONST, "restrict": KWRESTRICT, "__restrict": KWRESTRICT,
	"volatile": KWVOLATILE, "unsigned": KWUNSIGNED, "signed": KWSIGNED,
	"struct": KWSTRUCT, "typedef": KWTYPEDEF,
	"void": KWVOID, "bool": KWBOOL, "char": KWCHAR, "short": KWSHORT,
	"int": KWINT, "long": KWLONG, "float": KWFLOAT, "double": KWDOUBLE,
	"size_t": KWSIZET,
	"if":     KWIF, "else": KWELSE, "for": KWFOR, "while": KWWHILE,
	"do": KWDO, "return": KWRETURN, "break": KWBREAK,
	"continue": KWCONTINUE, "switch": KWSWITCH, "case": KWCASE,
	"default":       KWDEFAULT,
	"__attribute__": KWATTRIBUTE,
}

// Lookup maps an identifier spelling to its keyword kind, or IDENT if the
// spelling is not reserved.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column within a named file.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexical token: its kind, original spelling and position.
type Token struct {
	Kind Kind
	Lit  string // original spelling for identifiers and literals
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return fmt.Sprintf("%v(%s)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}
