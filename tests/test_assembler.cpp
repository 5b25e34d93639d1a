#include "isa/assembler.hpp"

#include <gtest/gtest.h>

namespace unsync::isa {
namespace {

TEST(Assembler, SimpleProgram) {
  const auto prog = Assembler::assemble(R"(
    addi r1, r0, 5
    addi r2, r0, 7
    add  r3, r1, r2
    halt
  )");
  ASSERT_EQ(prog.code.size(), 4u);
  EXPECT_EQ(prog.code[0].op, Opcode::kAddi);
  EXPECT_EQ(prog.code[2].op, Opcode::kAdd);
  EXPECT_EQ(prog.code[3].op, Opcode::kHalt);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const auto prog = Assembler::assemble(R"(
    # a comment
    addi r1, r0, 1   # trailing comment

    halt
  )");
  EXPECT_EQ(prog.code.size(), 2u);
}

TEST(Assembler, BackwardBranchToLabel) {
  const auto prog = Assembler::assemble(R"(
    addi r1, r0, 10
  loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
  )");
  ASSERT_EQ(prog.code.size(), 4u);
  // bne at index 2 branches to index 1 -> offset -1.
  EXPECT_EQ(prog.code[2].imm, -1);
}

TEST(Assembler, ForwardBranchToLabel) {
  const auto prog = Assembler::assemble(R"(
    beq r0, r0, end
    addi r1, r0, 1
  end:
    halt
  )");
  EXPECT_EQ(prog.code[0].imm, 2);
}

TEST(Assembler, JalToLabel) {
  const auto prog = Assembler::assemble(R"(
    jal r31, func
    halt
  func:
    halt
  )");
  EXPECT_EQ(prog.code[0].op, Opcode::kJal);
  EXPECT_EQ(prog.code[0].imm, 2);
  EXPECT_EQ(prog.code[0].rd, 31);
}

TEST(Assembler, MemoryOperandForms) {
  const auto prog = Assembler::assemble(R"(
    ld r1, 8(r2)
    ld r3, (r4)
    st r5, -16(r6)
    halt
  )");
  EXPECT_EQ(prog.code[0].imm, 8);
  EXPECT_EQ(prog.code[0].rs1, 2);
  EXPECT_EQ(prog.code[1].imm, 0);
  EXPECT_EQ(prog.code[2].imm, -16);
  EXPECT_EQ(prog.code[2].rd, 5);   // store data register
  EXPECT_EQ(prog.code[2].rs1, 6);  // base register
}

TEST(Assembler, DataWordDirective) {
  const auto prog = Assembler::assemble(R"(
    halt
    .word 1, 2, 0x10
  )");
  ASSERT_EQ(prog.data.size(), 24u);
  EXPECT_EQ(prog.data[0], 1);
  EXPECT_EQ(prog.data[8], 2);
  EXPECT_EQ(prog.data[16], 0x10);
}

TEST(Assembler, SpaceAndAlignDirectives) {
  const auto prog = Assembler::assemble(R"(
    halt
    .word 1
    .space 3
    .align 8
    .word 2
  )");
  // 8 + 3 = 11, aligned to 16, + 8 = 24.
  EXPECT_EQ(prog.data.size(), 24u);
  EXPECT_EQ(prog.data[16], 2);
}

TEST(Assembler, UndefinedDataLabelInLaThrows) {
  EXPECT_THROW(Assembler::assemble(R"(
    la r1, nosuchbuf
    halt
  )"), AsmError);
}

TEST(Assembler, LaExpandsToLuiOri) {
  // Data labels must be defined before use (single forward pass over data).
  const auto prog = Assembler::assemble(R"(
    .word 1
  buf:
    .word 2
    la r1, buf
    halt
  )");
  ASSERT_EQ(prog.code.size(), 3u);
  EXPECT_EQ(prog.code[0].op, Opcode::kLui);
  EXPECT_EQ(prog.code[1].op, Opcode::kOri);
  const Addr addr = prog.data_base + 8;
  EXPECT_EQ(prog.code[0].imm, static_cast<std::int32_t>(addr >> 14));
}

TEST(Assembler, LaWithIntegerAddress) {
  const auto prog = Assembler::assemble("la r2, 0x123456\nhalt");
  ASSERT_EQ(prog.code.size(), 3u);
  EXPECT_EQ(prog.code[0].rd, 2);
  EXPECT_EQ(prog.code[1].rd, 2);
  EXPECT_EQ(prog.code[1].rs1, 2);
}

TEST(Assembler, UnknownMnemonicThrows) {
  EXPECT_THROW(Assembler::assemble("frobnicate r1, r2, r3"), AsmError);
}

TEST(Assembler, UndefinedLabelThrows) {
  EXPECT_THROW(Assembler::assemble("beq r0, r0, nowhere\nhalt"), AsmError);
}

TEST(Assembler, WrongOperandCountThrows) {
  EXPECT_THROW(Assembler::assemble("add r1, r2"), AsmError);
  EXPECT_THROW(Assembler::assemble("halt r1"), AsmError);
}

TEST(Assembler, BadRegisterThrows) {
  EXPECT_THROW(Assembler::assemble("add r1, r2, r32"), AsmError);
  EXPECT_THROW(Assembler::assemble("add r1, r2, x3"), AsmError);
}

TEST(Assembler, BadImmediateThrows) {
  EXPECT_THROW(Assembler::assemble("addi r1, r0, notanumber"), AsmError);
}

TEST(Assembler, ImmediateRangeCheckedAtAssembly) {
  EXPECT_THROW(Assembler::assemble("addi r1, r0, 99999"), AsmError);
}

TEST(Assembler, ErrorCarriesLineNumber) {
  try {
    Assembler::assemble("addi r1, r0, 1\nbogus\nhalt");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line, 2);
    EXPECT_NE(e.what().find("bogus"), std::string::npos);
  }
}

TEST(Assembler, DuplicateLabelThrowsNamingTheFirstDefinition) {
  // A second definition would silently rebind every branch to it.
  for (const char* src : {"loop: nop\nloop: halt",
                          "loop:\nnop\nbuf: .word 1\nloop: .word 2"}) {
    try {
      Assembler::assemble(src);
      FAIL() << "expected AsmError for:\n" << src;
    } catch (const AsmError& e) {
      EXPECT_NE(e.what().find("duplicate label 'loop'"), std::string::npos)
          << e.what();
      EXPECT_NE(e.what().find("first defined on line 1"), std::string::npos)
          << e.what();
      EXPECT_GT(e.line, 1);
    }
  }
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const auto prog = Assembler::assemble(R"(
  start: addi r1, r0, 1
    beq r0, r0, start
    halt
  )");
  EXPECT_EQ(prog.code.size(), 3u);
  EXPECT_EQ(prog.code[1].imm, -1);
}

TEST(Assembler, FpInstructionsParse) {
  const auto prog = Assembler::assemble(R"(
    fmovi f1, r2
    fadd f3, f1, f1
    fld f4, 0(r5)
    fst f4, 8(r5)
    fcmplt r6, f3, f4
    halt
  )");
  EXPECT_EQ(prog.code[0].op, Opcode::kFmovi);
  EXPECT_EQ(prog.code[4].op, Opcode::kFcmplt);
}

TEST(Assembler, SerializingInstructionsParse) {
  const auto prog = Assembler::assemble("syscall\nmembar\nhalt");
  EXPECT_TRUE(prog.code[0].is_serializing());
  EXPECT_TRUE(prog.code[1].is_serializing());
}


TEST(Assembler, PseudoNopMvLiJRet) {
  const auto prog = Assembler::assemble(R"(
    nop
    li  r1, 42
    mv  r2, r1
    j   end
    nop
  end:
    ret
  )");
  ASSERT_EQ(prog.code.size(), 6u);
  EXPECT_EQ(prog.code[0].op, Opcode::kAdd);   // nop
  EXPECT_EQ(prog.code[0].rd, 0);
  EXPECT_EQ(prog.code[1].op, Opcode::kAddi);  // li
  EXPECT_EQ(prog.code[1].imm, 42);
  EXPECT_EQ(prog.code[2].op, Opcode::kAdd);   // mv
  EXPECT_EQ(prog.code[2].rs1, 1);
  EXPECT_EQ(prog.code[3].op, Opcode::kJal);   // j
  EXPECT_EQ(prog.code[3].rd, 0);
  EXPECT_EQ(prog.code[3].imm, 2);
  EXPECT_EQ(prog.code[5].op, Opcode::kJalr);  // ret
  EXPECT_EQ(prog.code[5].rs1, 31);
}

TEST(Assembler, PseudoOperandErrors) {
  EXPECT_THROW(Assembler::assemble("nop r1"), AsmError);
  EXPECT_THROW(Assembler::assemble("mv r1"), AsmError);
  EXPECT_THROW(Assembler::assemble("li r1, bogus"), AsmError);
  EXPECT_THROW(Assembler::assemble("j"), AsmError);
  EXPECT_THROW(Assembler::assemble("ret r31"), AsmError);
}

TEST(Assembler, ByteDirective) {
  const auto prog = Assembler::assemble(R"(
    halt
    .byte 1, 2, 255, -1
  )");
  ASSERT_EQ(prog.data.size(), 4u);
  EXPECT_EQ(prog.data[2], 255);
  EXPECT_EQ(prog.data[3], 255);  // -1 wraps
}

TEST(Assembler, ByteRangeChecked) {
  EXPECT_THROW(Assembler::assemble(".byte 256"), AsmError);
  EXPECT_THROW(Assembler::assemble(".byte -129"), AsmError);
}

TEST(Assembler, AsciiDirective) {
  const auto prog = Assembler::assemble(R"(
    halt
  msg:
    .ascii "hi\n\0"
  )");
  ASSERT_EQ(prog.data.size(), 4u);
  EXPECT_EQ(prog.data[0], 'h');
  EXPECT_EQ(prog.data[1], 'i');
  EXPECT_EQ(prog.data[2], '\n');
  EXPECT_EQ(prog.data[3], 0);
}

TEST(Assembler, AsciiRequiresQuotes) {
  EXPECT_THROW(Assembler::assemble(".ascii unquoted"), AsmError);
}

}  // namespace
}  // namespace unsync::isa
