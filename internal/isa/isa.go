// Package isa provides the x86-64 byte encodings of the sensitive
// privileged instructions Erebor removes from the kernel (Table 2 of the
// paper), a tiny emitter for building synthetic kernel text, and the
// byte-level scanner the monitor's verified boot runs over every executable
// section (§5.1).
//
// The scanner is deliberately *byte-level*, not a disassembler: Erebor only
// needs to guarantee that no byte sequence in executable memory forms a
// sensitive instruction, which is strictly stronger than checking aligned
// instruction starts (an attacker could jump mid-instruction).
package isa

import "fmt"

// Kind classifies a sensitive instruction.
type Kind int

const (
	KindMovToCR Kind = iota // 0F 22 /r
	KindWRMSR               // 0F 30
	KindSTAC                // 0F 01 CB
	KindLIDT                // 0F 01 /3 (memory operand)
	KindTDCALL              // 66 0F 01 CC
)

func (k Kind) String() string {
	switch k {
	case KindMovToCR:
		return "mov-to-CR"
	case KindWRMSR:
		return "wrmsr"
	case KindSTAC:
		return "stac"
	case KindLIDT:
		return "lidt"
	case KindTDCALL:
		return "tdcall"
	}
	return "unknown"
}

// Match is one sensitive byte sequence found by the scanner.
type Match struct {
	Kind   Kind
	Offset int
	Bytes  []byte
}

func (m Match) String() string {
	return fmt.Sprintf("%s at +%#x (% x)", m.Kind, m.Offset, m.Bytes)
}

// --- emitters ---------------------------------------------------------------

// EmitMovToCR emits mov %rax, %crN (modrm reg field selects the CR).
func EmitMovToCR(cr int) []byte {
	return []byte{0x0F, 0x22, byte(0xC0 | (cr&7)<<3)}
}

// EmitWRMSR emits wrmsr.
func EmitWRMSR() []byte { return []byte{0x0F, 0x30} }

// EmitSTAC emits stac.
func EmitSTAC() []byte { return []byte{0x0F, 0x01, 0xCB} }

// EmitCLAC emits clac (NOT sensitive: re-enabling SMAP is safe).
func EmitCLAC() []byte { return []byte{0x0F, 0x01, 0xCA} }

// EmitLIDT emits lidt with a RIP-relative memory operand (0F 01 /3).
func EmitLIDT(disp32 uint32) []byte {
	return []byte{0x0F, 0x01, 0x1D,
		byte(disp32), byte(disp32 >> 8), byte(disp32 >> 16), byte(disp32 >> 24)}
}

// EmitTDCALL emits tdcall (66 0F 01 CC).
func EmitTDCALL() []byte { return []byte{0x66, 0x0F, 0x01, 0xCC} }

// EmitEndbr64 emits the CET landing pad.
func EmitEndbr64() []byte { return []byte{0xF3, 0x0F, 0x1E, 0xFA} }

// Benign filler instructions for synthetic kernel text.

// EmitNop emits n single-byte nops.
func EmitNop(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0x90
	}
	return b
}

// EmitRet emits ret.
func EmitRet() []byte { return []byte{0xC3} }

// EmitCallRel32 emits call rel32.
func EmitCallRel32(rel int32) []byte {
	return []byte{0xE8, byte(rel), byte(rel >> 8), byte(rel >> 16), byte(rel >> 24)}
}

// EmitMovImm64 emits mov $imm64, %rax (48 B8 imm64). Note: an arbitrary
// immediate can embed sensitive byte patterns; Erebor's byte scanner will
// (correctly, conservatively) reject such images, so kernel builders must
// encode constants defensively — see SanitizeImm.
func EmitMovImm64(imm uint64) []byte {
	b := []byte{0x48, 0xB8}
	for i := 0; i < 8; i++ {
		b = append(b, byte(imm>>(8*i)))
	}
	return b
}

// Emit for a sensitive kind, used by tests and adversarial image builders.
func Emit(k Kind) []byte {
	switch k {
	case KindMovToCR:
		return EmitMovToCR(0)
	case KindWRMSR:
		return EmitWRMSR()
	case KindSTAC:
		return EmitSTAC()
	case KindLIDT:
		return EmitLIDT(0)
	case KindTDCALL:
		return EmitTDCALL()
	}
	panic("isa: unknown kind")
}

// AllKinds lists every sensitive kind (tests iterate it).
var AllKinds = []Kind{KindMovToCR, KindWRMSR, KindSTAC, KindLIDT, KindTDCALL}

// --- scanner ----------------------------------------------------------------

// ContainsImm reports whether an 8-byte immediate would embed a sensitive
// pattern (builders use it to pick safe encodings).
func ContainsImm(imm uint64) bool {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(imm >> (8 * i))
	}
	return len(Scan(b[:])) > 0
}

// Scan performs the byte-level sensitive-instruction scan over code and
// returns every match, at any byte offset.
func Scan(code []byte) []Match {
	var out []Match
	n := len(code)
	for i := 0; i < n-1; i++ {
		if code[i] != 0x0F {
			// tdcall starts 66 0F 01 CC; catch it at the 0F too, but also
			// ensure the 66-prefixed form is flagged even if we key on 0F.
			continue
		}
		switch code[i+1] {
		case 0x22:
			out = append(out, Match{KindMovToCR, i, clone(code[i:min(i+3, n)])})
		case 0x30:
			out = append(out, Match{KindWRMSR, i, clone(code[i : i+2])})
		case 0x01:
			if i+2 >= n {
				continue
			}
			modrm := code[i+2]
			switch {
			case modrm == 0xCB:
				out = append(out, Match{KindSTAC, i, clone(code[i : i+3])})
			case modrm == 0xCC && i > 0 && code[i-1] == 0x66:
				out = append(out, Match{KindTDCALL, i - 1, clone(code[i-1 : i+3])})
			case (modrm>>3)&7 == 3 && modrm>>6 != 3:
				// 0F 01 /3 with a memory operand: lidt.
				out = append(out, Match{KindLIDT, i, clone(code[i : i+3])})
			}
		}
	}
	return out
}

// Clean reports whether code contains no sensitive byte sequences.
func Clean(code []byte) bool { return len(Scan(code)) == 0 }

// FindEndbr is for the C4 and monitor image tests, which check that the
// monitor text has one landing pad. It returns the offsets of every
// endbr64 landing pad in code.
func FindEndbr(code []byte) []int {
	var out []int
	for i := 0; i+4 <= len(code); i++ {
		if code[i] == 0xF3 && code[i+1] == 0x0F && code[i+2] == 0x1E && code[i+3] == 0xFA {
			out = append(out, i)
		}
	}
	return out
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
