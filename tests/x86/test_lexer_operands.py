"""Tests for the lexer and operand value objects."""

import random

import pytest

from repro.x86.lexer import (
    LexError,
    _split_nested,
    _split_quoted,
    logical_lines,
    parse_integer,
    split_operands,
    tokenize_operand,
)
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.registers import get_register


class TestLogicalLines:
    def test_comment_stripping(self):
        lines = list(logical_lines("nop # c\n  ret  \n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_string_protects_hash(self):
        lines = list(logical_lines('.ascii "x#y" # real comment\n'))
        assert lines[0].text == '.ascii "x#y"'

    def test_semicolons(self):
        lines = list(logical_lines("nop;ret\n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_semicolon_in_string(self):
        lines = list(logical_lines('.ascii "a;b"\n'))
        assert len(lines) == 1

    def test_block_comment_spans_lines(self):
        lines = list(logical_lines("nop /* x\ny */ ret\n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_empty_lines_skipped(self):
        assert list(logical_lines("\n\n  \n")) == []

    def test_linenos(self):
        lines = list(logical_lines("nop\n\nret\n"))
        assert [(l.text, l.lineno) for l in lines] \
            == [("nop", 1), ("ret", 3)]

    def test_escaped_quote_stays_in_string(self):
        lines = list(logical_lines('.ascii "a\\"b;c" ; nop\n'))
        assert [l.text for l in lines] == ['.ascii "a\\"b;c"', "nop"]

    def test_escaped_backslash_closes_string(self):
        lines = list(logical_lines('.ascii "a\\\\"; nop # c\n'))
        assert [l.text for l in lines] == ['.ascii "a\\\\"', "nop"]


#: Fragments the generated lines are made of: comment, statement and
#: operand separators, quotes (plain, escaped, after an escaped
#: backslash), parentheses, empty operands and blank statements.
FRAGMENTS = ["#", ";", ";;", " ; ", '"', '\\"', '\\\\"', "(", ")", ",",
             ",,", ", ,", "a", "movl", " ", "\t", "%eax", "8(%rax,%rbx,4)",
             "$1", ".L5"]


def generated_lines(seed, count=2000, quotes=True):
    rng = random.Random(seed)
    fragments = [f for f in FRAGMENTS if quotes or '"' not in f]
    for _ in range(count):
        yield "".join(rng.choice(fragments)
                      for _ in range(rng.randrange(0, 12)))


class TestFastPaths:
    """The string-method paths agree with the quote- and
    depth-tracking loops they bypass."""

    @pytest.mark.parametrize("quotes", [False, True])
    def test_logical_lines_match_quote_aware_loop(self, quotes):
        for line in generated_lines(1, quotes=quotes):
            want = [s.strip() for s in _split_quoted(line) if s.strip()]
            assert [l.text for l in logical_lines(line)] == want, line

    def test_split_operands_matches_depth_loop(self):
        for text in generated_lines(2):
            assert split_operands(text) == _split_nested(text), text
        plain = [t for t in generated_lines(3) if "(" not in t
                 and ")" not in t]
        assert len(plain) > 100
        for text in plain:
            assert split_operands(text) == _split_nested(text), text

    def test_empty_and_trailing_operands(self):
        assert split_operands("a,,b") == ["a", "", "b"]
        assert split_operands("a, b,") == ["a", "b"]
        assert split_operands(",") == [""]


class TestTokenizer:
    def test_register_token(self):
        assert tokenize_operand("%rax") == [("REG", "%rax")]

    def test_immediate_tokens(self):
        assert tokenize_operand("$42")[0] == ("DOLLAR", "$")

    def test_memory_tokens(self):
        kinds = [k for k, _ in tokenize_operand("-8(%rbp,%rax,4)")]
        assert kinds == ["NUMBER", "LPAREN", "REG", "COMMA", "REG",
                         "COMMA", "NUMBER", "RPAREN"]

    def test_hex_numbers(self):
        assert tokenize_operand("0x10") == [("NUMBER", "0x10")]
        assert tokenize_operand("-0xFF") == [("NUMBER", "-0xFF")]

    def test_symbols_with_dots(self):
        assert tokenize_operand(".L5") == [("IDENT", ".L5")]

    def test_garbage_rejected(self):
        with pytest.raises(LexError):
            tokenize_operand("%rax ` %rbx")


class TestSplitOperands:
    def test_simple(self):
        assert split_operands("%rax, %rbx") == ["%rax", "%rbx"]

    def test_memory_commas_protected(self):
        assert split_operands("8(%rax,%rbx,4), %rdx") \
            == ["8(%rax,%rbx,4)", "%rdx"]

    def test_empty(self):
        assert split_operands("") == []

    def test_parse_integer(self):
        assert parse_integer("10") == 10
        assert parse_integer("0x10") == 16
        assert parse_integer("-5") == -5


class TestOperandObjects:
    def test_immediate_str(self):
        assert str(Immediate(5)) == "$5"
        assert str(Immediate(-5)) == "$-5"
        assert str(Immediate(4, symbol="tab")) == "$tab+4"
        assert str(Immediate(0, symbol="tab")) == "$tab"

    def test_immediate_ranges(self):
        assert Immediate(127).fits_signed(8)
        assert not Immediate(128).fits_signed(8)
        assert Immediate(255).fits_unsigned(8)
        assert not Immediate(-1).fits_unsigned(8)

    def test_memory_str_forms(self):
        rax = get_register("rax")
        rbx = get_register("rbx")
        assert str(Memory(base=rax)) == "(%rax)"
        assert str(Memory(disp=-8, base=rax)) == "-8(%rax)"
        assert str(Memory(disp=8, base=rax, index=rbx, scale=4)) \
            == "8(%rax,%rbx,4)"
        assert str(Memory(symbol="x", base=get_register("rip"))) \
            == "x(%rip)"

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            Memory(scale=3)
        with pytest.raises(ValueError):
            Memory(index=get_register("rsp"))

    def test_register_operand_str(self):
        op = RegisterOperand(get_register("rax"))
        assert str(op) == "%rax"
        assert str(RegisterOperand(get_register("rax"),
                                   indirect=True)) == "*%rax"

    def test_label_ref(self):
        assert str(LabelRef(".L5")) == ".L5"

    def test_memory_flags(self):
        rip = get_register("rip")
        assert Memory(symbol="x", base=rip).is_rip_relative
        assert Memory(disp=4).is_absolute
        assert not Memory(base=get_register("rax")).is_absolute


class TestTokenInterning:
    def test_mnemonics_interned_across_instructions(self):
        from repro.x86.parser import parse_instruction
        one = parse_instruction("movq %rax, %rbx")
        two = parse_instruction("movq %rcx, %rdx")
        assert one.insn.mnemonic is two.insn.mnemonic


class TestOperandMemo:
    def test_two_parses_share_memory_operand(self):
        from repro.x86.parser import parse_operand
        first = parse_operand("8(%rax,%rbx,4)")
        assert isinstance(first, Memory)
        assert parse_operand("8(%rax,%rbx,4)") is first

    @pytest.mark.parametrize("text", ["%bogus", "8(%rax,%rbx,3)", "%eax?",
                                      "$1 2"])
    def test_errors_carry_the_calling_line_every_time(self, text):
        from repro.x86.parser import ParseError, parse_instruction
        for lineno in (3, 7, 3):
            with pytest.raises(ParseError) as info:
                parse_instruction("movl %s, %%eax" % text, lineno)
            assert info.value.lineno == lineno

    def test_branch_and_data_decode_apart(self):
        from repro.x86.parser import parse_operand
        for _ in range(2):
            assert parse_operand(".L5", is_branch=False) \
                == Memory(symbol=".L5")
            assert parse_operand(".L5", is_branch=True) == LabelRef(".L5")

    def test_mnemonic_decode_is_shared(self):
        from repro.x86.isa import UnknownMnemonic, split_mnemonic
        assert split_mnemonic("addl") is split_mnemonic("addl")
        for _ in range(2):
            with pytest.raises(UnknownMnemonic):
                split_mnemonic("frobl")
