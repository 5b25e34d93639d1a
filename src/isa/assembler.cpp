#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

namespace unsync::isa {
namespace {

struct Token {
  std::string text;
};

std::string strip(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Splits "r1, 8(r2)" style operand lists on commas, trimming whitespace.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cur = strip(cur);
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool parse_reg(const std::string& tok, RegIndex* out) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'f')) return false;
  int v = 0;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return false;
    v = v * 10 + (tok[i] - '0');
  }
  if (v < 0 || v > 31) return false;
  *out = static_cast<RegIndex>(v);
  return true;
}

bool parse_int(const std::string& tok, std::int64_t* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  if (tok[0] == '-') {
    const long long v = std::strtoll(tok.c_str(), &end, 0);
    if (errno != 0 || end != tok.c_str() + tok.size()) return false;
    *out = v;
  } else {
    // Unsigned parse so full-width 64-bit .word literals round-trip.
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 0);
    if (errno != 0 || end != tok.c_str() + tok.size()) return false;
    *out = static_cast<std::int64_t>(v);
  }
  return true;
}

/// Parses "imm(reg)" memory operands.
bool parse_mem_operand(const std::string& tok, std::int64_t* imm,
                       RegIndex* base) {
  const auto open = tok.find('(');
  const auto close = tok.find(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    return false;
  }
  const std::string imm_part = strip(tok.substr(0, open));
  const std::string reg_part = strip(tok.substr(open + 1, close - open - 1));
  if (imm_part.empty()) {
    *imm = 0;
  } else if (!parse_int(imm_part, imm)) {
    return false;
  }
  return parse_reg(reg_part, base);
}

struct PendingLabelRef {
  std::size_t inst_index;
  std::string label;
  int line;
  bool j_type;  // true => 19-bit field, false => 14-bit field
};

}  // namespace

Program Assembler::assemble(const std::string& source) {
  Program prog;
  std::map<std::string, std::size_t> code_labels;   // label -> inst index
  std::map<std::string, std::uint64_t> data_labels; // label -> data offset
  std::vector<PendingLabelRef> fixups;
  std::map<std::string, int> label_lines;  // label -> defining line

  std::istringstream in(source);
  std::string raw;
  int lineno = 0;
  // Labels bind to whatever is emitted next: an instruction binds them to
  // the code index, a data directive to the data offset. This lets code and
  // data interleave freely without explicit sections.
  std::vector<std::string> pending_labels;
  auto bind_pending_to_code = [&] {
    for (auto& l : pending_labels) code_labels[l] = prog.code.size();
    pending_labels.clear();
  };
  auto bind_pending_to_data = [&] {
    for (auto& l : pending_labels) data_labels[l] = prog.data.size();
    pending_labels.clear();
  };

  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = strip(line);
    if (line.empty()) continue;

    // Leading labels (possibly several on one line).
    while (true) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::string head = strip(line.substr(0, colon));
      // A ':' inside an operand (shouldn't occur) — treat as syntax error.
      if (head.find_first_of(" \t,()") != std::string::npos) {
        throw AsmError{lineno, "malformed label '" + head + "'"};
      }
      if (head.empty()) throw AsmError{lineno, "empty label"};
      if (const auto [it, fresh] = label_lines.emplace(head, lineno); !fresh) {
        throw AsmError{lineno, "duplicate label '" + head +
                                   "' (first defined on line " +
                                   std::to_string(it->second) + ")"};
      }
      pending_labels.push_back(head);
      line = strip(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    // Split mnemonic and operand tail.
    std::string mnemonic = line;
    std::string tail;
    if (const auto sp = line.find_first_of(" \t"); sp != std::string::npos) {
      mnemonic = line.substr(0, sp);
      tail = strip(line.substr(sp + 1));
    }
    mnemonic = lower(mnemonic);

    // Data directives.
    if (mnemonic == ".word") {
      bind_pending_to_data();
      for (const auto& op : split_operands(tail)) {
        std::int64_t v = 0;
        if (!parse_int(op, &v)) {
          throw AsmError{lineno, "bad .word value '" + op + "'"};
        }
        for (int b = 0; b < 8; ++b) {
          prog.data.push_back(
              static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * b)));
        }
      }
      continue;
    }
    if (mnemonic == ".space") {
      bind_pending_to_data();
      std::int64_t n = 0;
      if (!parse_int(tail, &n) || n < 0) {
        throw AsmError{lineno, "bad .space size '" + tail + "'"};
      }
      prog.data.insert(prog.data.end(), static_cast<std::size_t>(n), 0);
      continue;
    }
    if (mnemonic == ".align") {
      bind_pending_to_data();
      std::int64_t a = 0;
      if (!parse_int(tail, &a) || a <= 0) {
        throw AsmError{lineno, "bad .align value '" + tail + "'"};
      }
      while (prog.data.size() % static_cast<std::size_t>(a) != 0) {
        prog.data.push_back(0);
      }
      continue;
    }
    if (mnemonic == ".byte") {
      bind_pending_to_data();
      for (const auto& op : split_operands(tail)) {
        std::int64_t v = 0;
        if (!parse_int(op, &v) || v < -128 || v > 255) {
          throw AsmError{lineno, "bad .byte value '" + op + "'"};
        }
        prog.data.push_back(static_cast<std::uint8_t>(v));
      }
      continue;
    }
    if (mnemonic == ".ascii") {
      bind_pending_to_data();
      // Operand is a double-quoted string; \n and \0 escapes supported.
      const auto open_q = tail.find('"');
      const auto close_q = tail.rfind('"');
      if (open_q == std::string::npos || close_q <= open_q) {
        throw AsmError{lineno, ".ascii expects a quoted string"};
      }
      const std::string body = tail.substr(open_q + 1, close_q - open_q - 1);
      for (std::size_t i = 0; i < body.size(); ++i) {
        char c = body[i];
        if (c == '\\' && i + 1 < body.size()) {
          ++i;
          switch (body[i]) {
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            case '0': c = '\0'; break;
            case '\\': c = '\\'; break;
            default:
              throw AsmError{lineno, std::string("bad escape '\\") +
                                         body[i] + "' in .ascii"};
          }
        }
        prog.data.push_back(static_cast<std::uint8_t>(c));
      }
      continue;
    }
    if (!mnemonic.empty() && mnemonic[0] == '.') {
      throw AsmError{lineno, "unknown directive '" + mnemonic + "'"};
    }

    // Simple pseudo-instructions that expand to one real instruction.
    //   nop             -> add r0, r0, r0
    //   mv   rd, rs     -> add rd, rs, r0
    //   li   rd, imm    -> addi rd, r0, imm   (14-bit range)
    //   j    label      -> jal r0, label
    //   ret             -> jalr r0, r31
    if (mnemonic == "nop" || mnemonic == "mv" || mnemonic == "li" ||
        mnemonic == "j" || mnemonic == "ret") {
      bind_pending_to_code();
      const auto ops = split_operands(tail);
      Inst inst;
      if (mnemonic == "nop") {
        if (!ops.empty()) throw AsmError{lineno, "nop takes no operands"};
        inst.op = Opcode::kAdd;
      } else if (mnemonic == "mv") {
        if (ops.size() != 2) throw AsmError{lineno, "mv expects 2 operands"};
        inst.op = Opcode::kAdd;
        if (!parse_reg(ops[0], &inst.rd) || !parse_reg(ops[1], &inst.rs1)) {
          throw AsmError{lineno, "bad register in mv"};
        }
      } else if (mnemonic == "li") {
        if (ops.size() != 2) throw AsmError{lineno, "li expects 2 operands"};
        inst.op = Opcode::kAddi;
        std::int64_t v = 0;
        if (!parse_reg(ops[0], &inst.rd) || !parse_int(ops[1], &v)) {
          throw AsmError{lineno, "bad operands in li"};
        }
        inst.imm = static_cast<std::int32_t>(v);
      } else if (mnemonic == "j") {
        if (ops.size() != 1) throw AsmError{lineno, "j expects 1 operand"};
        inst.op = Opcode::kJal;
        inst.rd = 0;
        std::int64_t v = 0;
        if (parse_int(ops[0], &v)) {
          inst.imm = static_cast<std::int32_t>(v);
        } else {
          fixups.push_back({prog.code.size(), ops[0], lineno, true});
        }
      } else {  // ret
        if (!ops.empty()) throw AsmError{lineno, "ret takes no operands"};
        inst.op = Opcode::kJalr;
        inst.rd = 0;
        inst.rs1 = 31;
      }
      prog.code.push_back(inst);
      continue;
    }

    // Pseudo-instruction: la rd, <data-label|integer> expands to lui+ori.
    // Data labels must be defined before use. The low half is encoded as a
    // signed 14-bit field; ori zero-extends it at execution.
    if (mnemonic == "la") {
      bind_pending_to_code();
      const auto ops = split_operands(tail);
      if (ops.size() != 2) {
        throw AsmError{lineno, "la expects 2 operands"};
      }
      RegIndex rd;
      if (!parse_reg(ops[0], &rd)) {
        throw AsmError{lineno, "bad register '" + ops[0] + "'"};
      }
      std::int64_t addr = 0;
      if (!parse_int(ops[1], &addr)) {
        const auto it = data_labels.find(ops[1]);
        if (it == data_labels.end()) {
          throw AsmError{lineno, "undefined data label '" + ops[1] + "'"};
        }
        addr = static_cast<std::int64_t>(prog.data_base + it->second);
      }
      const auto hi = static_cast<std::int32_t>(addr >> 14);
      const auto lo14 = static_cast<std::uint32_t>(addr) & 0x3fffu;
      const auto lo_signed =
          static_cast<std::int32_t>((lo14 ^ 0x2000u)) - 0x2000;
      prog.code.push_back(
          {.op = Opcode::kLui, .rd = rd, .rs1 = 0, .rs2 = 0, .imm = hi});
      prog.code.push_back({.op = Opcode::kOri, .rd = rd, .rs1 = rd, .rs2 = 0,
                           .imm = lo_signed});
      continue;
    }

    const auto op = opcode_from_name(mnemonic);
    if (!op) throw AsmError{lineno, "unknown mnemonic '" + mnemonic + "'"};
    bind_pending_to_code();

    Inst inst;
    inst.op = *op;
    const auto ops = split_operands(tail);
    const InstClass cls = class_of(*op);

    auto need = [&](std::size_t n) {
      if (ops.size() != n) {
        throw AsmError{lineno, mnemonic + " expects " + std::to_string(n) +
                                   " operands, got " +
                                   std::to_string(ops.size())};
      }
    };
    auto reg = [&](std::size_t i) {
      RegIndex r;
      if (!parse_reg(ops[i], &r)) {
        throw AsmError{lineno, "bad register '" + ops[i] + "'"};
      }
      return r;
    };
    auto imm_or_label = [&](std::size_t i, bool j_type) -> std::int32_t {
      std::int64_t v = 0;
      if (parse_int(ops[i], &v)) return static_cast<std::int32_t>(v);
      fixups.push_back({prog.code.size(), ops[i], lineno, j_type});
      return 0;  // patched in pass 2
    };

    switch (cls) {
      case InstClass::kIntAlu:
      case InstClass::kIntMul:
      case InstClass::kIntDiv:
      case InstClass::kFpAlu:
      case InstClass::kFpMul:
      case InstClass::kFpDiv: {
        if (*op == Opcode::kLui) {
          need(2);
          inst.rd = reg(0);
          std::int64_t v = 0;
          if (!parse_int(ops[1], &v)) {
            throw AsmError{lineno, "bad immediate '" + ops[1] + "'"};
          }
          inst.imm = static_cast<std::int32_t>(v);
        } else if (*op == Opcode::kAddi || *op == Opcode::kAndi ||
                   *op == Opcode::kOri || *op == Opcode::kXori ||
                   *op == Opcode::kSlti || *op == Opcode::kSlli ||
                   *op == Opcode::kSrli) {
          need(3);
          inst.rd = reg(0);
          inst.rs1 = reg(1);
          std::int64_t v = 0;
          if (!parse_int(ops[2], &v)) {
            // Allow `addi rd, r0, label` to materialise a data address.
            const auto it = data_labels.find(ops[2]);
            if (it == data_labels.end()) {
              throw AsmError{lineno, "bad immediate '" + ops[2] + "'"};
            }
            v = static_cast<std::int64_t>(prog.data_base + it->second);
          }
          inst.imm = static_cast<std::int32_t>(v);
        } else if (*op == Opcode::kFmovi) {
          need(2);
          inst.rd = reg(0);
          inst.rs1 = reg(1);
        } else {
          need(3);
          inst.rd = reg(0);
          inst.rs1 = reg(1);
          inst.rs2 = reg(2);
        }
        break;
      }
      case InstClass::kLoad:
      case InstClass::kStore: {
        need(2);
        inst.rd = reg(0);  // data register for stores, dest for loads
        std::int64_t imm = 0;
        RegIndex base = 0;
        if (!parse_mem_operand(ops[1], &imm, &base)) {
          throw AsmError{lineno, "bad memory operand '" + ops[1] + "'"};
        }
        inst.rs1 = base;
        inst.imm = static_cast<std::int32_t>(imm);
        break;
      }
      case InstClass::kBranch: {
        if (*op == Opcode::kJal) {
          need(2);
          inst.rd = reg(0);
          inst.imm = imm_or_label(1, /*j_type=*/true);
        } else if (*op == Opcode::kJalr) {
          need(2);
          inst.rd = reg(0);
          inst.rs1 = reg(1);
        } else {
          need(3);
          inst.rs1 = reg(0);
          inst.rs2 = reg(1);
          inst.imm = imm_or_label(2, /*j_type=*/false);
        }
        break;
      }
      case InstClass::kSerializing:
      case InstClass::kHalt:
        need(0);
        break;
    }

    prog.code.push_back(inst);
  }

  bind_pending_to_code();  // trailing labels point at the code end

  // Pass 2: patch label references as pc-relative instruction offsets.
  for (const auto& fix : fixups) {
    const auto it = code_labels.find(fix.label);
    if (it == code_labels.end()) {
      throw AsmError{fix.line, "undefined label '" + fix.label + "'"};
    }
    const auto delta = static_cast<std::int64_t>(it->second) -
                       static_cast<std::int64_t>(fix.inst_index);
    const std::int32_t lo = fix.j_type ? kImm19Min : kImm14Min;
    const std::int32_t hi = fix.j_type ? kImm19Max : kImm14Max;
    if (delta < lo || delta > hi) {
      throw AsmError{fix.line, "branch to '" + fix.label + "' out of range"};
    }
    prog.code[fix.inst_index].imm = static_cast<std::int32_t>(delta);
  }

  // Validate every encodable immediate now so later encode() cannot throw.
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    try {
      (void)encode(prog.code[i]);
    } catch (const std::out_of_range& e) {
      throw AsmError{0, "instruction " + std::to_string(i) + ": " + e.what()};
    }
  }
  return prog;
}

}  // namespace unsync::isa
