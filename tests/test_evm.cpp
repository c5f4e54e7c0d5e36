#include "evm/interpreter.hpp"

#include <gtest/gtest.h>

#include <string>

#include "evm/asm.hpp"
#include "evm/opcodes.hpp"

namespace srbb::evm {
namespace {

using state::StateDB;

Address addr(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

const Address kContract = addr(0xCC);
const Address kCaller = addr(0xAA);

struct Harness {
  StateDB db;
  BlockContext block;
  TxContext tx;

  Harness() {
    block.number = 7;
    block.timestamp = 1'700'000'000;
    block.coinbase = addr(0xC0);
    tx.origin = kCaller;
    tx.gas_price = U256{2};
    db.add_balance(kCaller, U256{1'000'000});
  }

  ExecResult run(const std::string& source, Bytes calldata = {},
                 std::uint64_t gas = 1'000'000, U256 value = U256::zero()) {
    auto code = assemble(source);
    EXPECT_TRUE(code.is_ok()) << code.message();
    db.set_code(kContract, code.value());
    Evm evm{db, block, tx};
    Message msg;
    msg.caller = kCaller;
    msg.to = kContract;
    msg.data = std::move(calldata);
    msg.gas = gas;
    msg.value = value;
    last_logs = [&] {
      const ExecResult r = evm.execute(msg);
      logs = evm.logs();
      return r;
    }();
    return last_logs;
  }

  ExecResult last_logs;
  std::vector<LogEntry> logs;
};

U256 word(const Bytes& output) { return U256::from_be(output); }

// --- arithmetic through RETURN ---

struct BinOpCase {
  const char* op;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t expected;  // op(b, a) in EVM order: top is first operand
};

// Name each case by its opcode. The default printer dumps the struct's raw
// bytes, `op` pointer included, so the case names would change with every
// load address.
void PrintTo(const BinOpCase& c, std::ostream* os) { *os << c.op; }

class EvmBinOp : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(EvmBinOp, ComputesExpected) {
  const BinOpCase& c = GetParam();
  Harness h;
  // push a, push b, OP -> top-of-stack order makes b the first operand.
  const std::string source = "PUSH8 " + std::to_string(c.a) + " PUSH8 " +
                             std::to_string(c.b) + " " + c.op +
                             " PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN";
  const ExecResult r = h.run(source);
  ASSERT_TRUE(r.ok()) << to_string(r.status);
  EXPECT_EQ(word(r.output), U256{c.expected});
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EvmBinOp,
    ::testing::Values(
        BinOpCase{"ADD", 2, 3, 5}, BinOpCase{"MUL", 7, 6, 42},
        BinOpCase{"SUB", 3, 10, 7},       // 10 - 3
        BinOpCase{"DIV", 3, 10, 3},       // 10 / 3
        BinOpCase{"MOD", 3, 10, 1},       // 10 % 3
        BinOpCase{"LT", 10, 3, 1},        // 3 < 10
        BinOpCase{"GT", 10, 3, 0},        // 3 > 10
        BinOpCase{"EQ", 5, 5, 1},
        BinOpCase{"AND", 0b1100, 0b1010, 0b1000},
        BinOpCase{"OR", 0b1100, 0b1010, 0b1110},
        BinOpCase{"XOR", 0b1100, 0b1010, 0b0110},
        BinOpCase{"SHL", 1, 4, 16},       // 1 << 4
        BinOpCase{"SHR", 16, 4, 1},       // 16 >> 4
        BinOpCase{"BYTE", 0xff, 31, 0xff}));

TEST(EvmArithmetic, DivByZeroYieldsZero) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 0 PUSH1 9 DIV PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(word(r.output), U256::zero());
}

TEST(EvmArithmetic, ExpChargesPerExponentByte) {
  Harness h;
  const ExecResult cheap = h.run(
      "PUSH1 2 PUSH1 2 EXP PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(cheap.ok());
  EXPECT_EQ(word(cheap.output), U256{4});
  Harness h2;
  const ExecResult wide = h2.run(
      "PUSH4 65536 PUSH1 2 EXP PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(wide.ok());
  // 2^65536 wraps to 0 mod 2^256.
  EXPECT_EQ(word(wide.output), U256::zero());
  EXPECT_LT(wide.gas_left, cheap.gas_left);  // 3-byte exponent costs more
}

TEST(EvmArithmetic, SignedOps) {
  Harness h;
  // -10 / 3 == -3 (truncated): build -10 as 0 - 10.
  const ExecResult r = h.run(
      "PUSH1 3 PUSH1 10 PUSH1 0 SUB SDIV PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(word(r.output), negate(U256{3}));
}

// --- control flow ---

TEST(EvmControlFlow, JumpOverTrap) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH @ok JUMP INVALID ok: PUSH1 1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok()) << to_string(r.status);
  EXPECT_EQ(word(r.output), U256::one());
}

TEST(EvmControlFlow, JumpiTakenAndNotTaken) {
  Harness h;
  // condition 1: jump to `one`, return 1.
  const ExecResult taken = h.run(
      "PUSH1 1 PUSH @one JUMPI PUSH1 2 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN "
      "one: PUSH1 1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(word(taken.output), U256::one());
  Harness h2;
  const ExecResult fallthrough = h2.run(
      "PUSH1 0 PUSH @one JUMPI PUSH1 2 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN "
      "one: PUSH1 1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(fallthrough.ok());
  EXPECT_EQ(word(fallthrough.output), U256{2});
}

TEST(EvmControlFlow, JumpToNonJumpdestFails) {
  Harness h;
  const ExecResult r = h.run("PUSH1 0 JUMP");
  EXPECT_EQ(r.status, ExecStatus::kInvalidJump);
  EXPECT_EQ(r.gas_left, 0u);
}

TEST(EvmControlFlow, JumpIntoPushImmediateFails) {
  Harness h;
  // Code: PUSH2 0x5b00 ... offset 1 contains byte 0x5b but inside immediate.
  const ExecResult r = h.run("PUSH1 1 JUMP PUSH2 0x5b00 STOP");
  EXPECT_EQ(r.status, ExecStatus::kInvalidJump);
}

TEST(EvmControlFlow, LoopSumsCorrectly) {
  Harness h;
  // sum 1..10 in a loop: i in slot of stack; acc; while i != 0 { acc+=i; --i }
  const std::string source = R"(
    PUSH1 0        ; acc
    PUSH1 10       ; i
  loop:
    DUP1 ISZERO PUSH @done JUMPI
    DUP1 SWAP2 ADD SWAP1   ; acc += i
    PUSH1 1 SWAP1 SUB      ; i -= 1
    PUSH @loop JUMP
  done:
    POP
    PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
  )";
  const ExecResult r = h.run(source);
  ASSERT_TRUE(r.ok()) << to_string(r.status);
  EXPECT_EQ(word(r.output), U256{55});
}

TEST(EvmControlFlow, ImplicitStopAtEndOfCode) {
  Harness h;
  const ExecResult r = h.run("PUSH1 1 PUSH1 2 ADD");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.output.empty());
}

// --- stack discipline ---

TEST(EvmStack, UnderflowDetected) {
  Harness h;
  const ExecResult r = h.run("ADD");
  EXPECT_EQ(r.status, ExecStatus::kStackUnderflow);
}

TEST(EvmStack, OverflowDetected) {
  Harness h;
  std::string source;
  for (int i = 0; i < 1025; ++i) source += "PUSH1 1 ";
  const ExecResult r = h.run(source);
  EXPECT_EQ(r.status, ExecStatus::kStackOverflow);
}

TEST(EvmStack, DupAndSwapFamilies) {
  Harness h;
  // [1 2 3], DUP3 duplicates the 3rd from top (1), SWAP1 then returns.
  const ExecResult r = h.run(
      "PUSH1 1 PUSH1 2 PUSH1 3 DUP3 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(word(r.output), U256::one());
  Harness h2;
  const ExecResult r2 = h2.run(
      "PUSH1 1 PUSH1 2 SWAP1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(word(r2.output), U256::one());
}

// --- memory ---

TEST(EvmMemory, Mstore8AndMload) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 0xAB PUSH1 0 MSTORE8 PUSH1 0 MLOAD PUSH1 0 MSTORE "
      "PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  // 0xAB in the most significant byte of the word.
  EXPECT_EQ(word(r.output), U256{0xAB} << 248);
}

TEST(EvmMemory, MsizeTracksExpansion) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 1 PUSH1 100 MSTORE MSIZE PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  // Offset 100 + 32 = 132 -> rounded to 160 bytes (5 words).
  EXPECT_EQ(word(r.output), U256{160});
}

TEST(EvmMemory, HugeOffsetRunsOutOfGas) {
  Harness h;
  const ExecResult r = h.run("PUSH1 1 PUSH8 4294967295 MSTORE");
  EXPECT_EQ(r.status, ExecStatus::kOutOfGas);
}

// --- storage ---

TEST(EvmStorage, SstoreSloadRoundTrip) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 42 PUSH1 7 SSTORE PUSH1 7 SLOAD PUSH1 0 MSTORE "
      "PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(word(r.output), U256{42});
  EXPECT_EQ(h.db.storage(kContract, U256{7}.to_hash()), U256{42});
}

TEST(EvmStorage, SstoreGasTiersDiffer) {
  Harness h;
  // Fresh write (0 -> nonzero) costs 20000.
  const ExecResult fresh = h.run("PUSH1 1 PUSH1 0 SSTORE");
  ASSERT_TRUE(fresh.ok());
  // Same-value write costs 200.
  Harness h2;
  h2.db.set_storage(kContract, U256{0}.to_hash(), U256{1});
  const ExecResult same = h2.run("PUSH1 1 PUSH1 0 SSTORE");
  ASSERT_TRUE(same.ok());
  EXPECT_GT(same.gas_left, fresh.gas_left);
}

// --- environment ---

TEST(EvmEnv, CallerOriginAddressValue) {
  Harness h;
  const ExecResult r = h.run(
      "CALLER PUSH1 0 MSTORE CALLVALUE PUSH1 32 MSTORE "
      "PUSH1 64 PUSH1 0 RETURN",
      {}, 1'000'000, U256{123});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Bytes(r.output.begin() + 12, r.output.begin() + 32),
            Bytes(kCaller.begin(), kCaller.end()));
  EXPECT_EQ(U256::from_be(BytesView{r.output}.subspan(32)), U256{123});
  EXPECT_EQ(h.db.balance(kContract), U256{123});  // value transferred
}

TEST(EvmEnv, BlockContextVisible) {
  Harness h;
  const ExecResult r = h.run(
      "NUMBER PUSH1 0 MSTORE TIMESTAMP PUSH1 32 MSTORE CHAINID PUSH1 64 MSTORE "
      "PUSH1 96 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  BytesView out{r.output};
  EXPECT_EQ(U256::from_be(out.subspan(0, 32)), U256{7});
  EXPECT_EQ(U256::from_be(out.subspan(32, 32)), U256{1'700'000'000});
  EXPECT_EQ(U256::from_be(out.subspan(64, 32)), U256{4242});
}

TEST(EvmEnv, CalldataloadPadsWithZeros) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 0 CALLDATALOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
      Bytes{0x12, 0x34});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(word(r.output), U256{0x1234} << 240);
}

TEST(EvmEnv, Sha3OfMemory) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 1 PUSH1 31 MSTORE8 PUSH1 32 PUSH1 0 SHA3 "
      "PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  ASSERT_TRUE(r.ok());
  // keccak256(uint256(1)) — the canonical mapping-slot hash.
  EXPECT_EQ(to_hex(r.output),
            "b10e2d527612073b26eecdfd717e6a320cf44b4afac2b0732d9fcbe2b7fa0cf6");
}

// --- revert and errors ---

TEST(EvmErrors, RevertReturnsDataAndKeepsGas) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 9 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 REVERT");
  EXPECT_EQ(r.status, ExecStatus::kRevert);
  EXPECT_GT(r.gas_left, 0u);
  EXPECT_EQ(word(r.output), U256{9});
}

TEST(EvmErrors, RevertRollsBackState) {
  Harness h;
  const ExecResult r = h.run("PUSH1 1 PUSH1 0 SSTORE PUSH1 0 PUSH1 0 REVERT");
  EXPECT_EQ(r.status, ExecStatus::kRevert);
  EXPECT_EQ(h.db.storage(kContract, U256{0}.to_hash()), U256::zero());
}

TEST(EvmErrors, OutOfGasConsumesEverything) {
  Harness h;
  const ExecResult r = h.run("PUSH1 1 PUSH1 0 SSTORE", {}, 100);
  EXPECT_EQ(r.status, ExecStatus::kOutOfGas);
  EXPECT_EQ(r.gas_left, 0u);
}

TEST(EvmErrors, InvalidOpcode) {
  Harness h;
  const ExecResult r = h.run("INVALID");
  EXPECT_EQ(r.status, ExecStatus::kInvalidOpcode);
}

TEST(EvmErrors, UndefinedOpcodeByte) {
  Harness h;
  Bytes code{0x0c};  // hole in the instruction set
  h.db.set_code(kContract, code);
  Evm evm{h.db, h.block, h.tx};
  Message msg;
  msg.caller = kCaller;
  msg.to = kContract;
  msg.gas = 1000;
  EXPECT_EQ(evm.execute(msg).status, ExecStatus::kInvalidOpcode);
}

TEST(EvmErrors, InsufficientBalanceForValueTransfer) {
  Harness h;
  Evm evm{h.db, h.block, h.tx};
  Message msg;
  msg.caller = addr(0x77);  // empty account
  msg.to = kContract;
  msg.value = U256{5};
  msg.gas = 100000;
  EXPECT_EQ(evm.execute(msg).status, ExecStatus::kInsufficientBalance);
}

// --- logs ---

TEST(EvmLogs, TopicsAndData) {
  Harness h;
  const ExecResult r = h.run(
      "PUSH1 0xEE PUSH1 0 MSTORE8 PUSH1 8 PUSH1 7 PUSH1 1 PUSH1 0 LOG2");
  ASSERT_TRUE(r.ok()) << to_string(r.status);
  ASSERT_EQ(h.logs.size(), 1u);
  EXPECT_EQ(h.logs[0].address, kContract);
  ASSERT_EQ(h.logs[0].topics.size(), 2u);
  EXPECT_EQ(U256::from_be(h.logs[0].topics[0].view()), U256{7});
  EXPECT_EQ(U256::from_be(h.logs[0].topics[1].view()), U256{8});
  EXPECT_EQ(h.logs[0].data, Bytes{0xEE});
}

TEST(EvmLogs, RevertedFrameDropsLogs) {
  Harness h;
  const ExecResult r = h.run("PUSH1 0 PUSH1 0 LOG0 PUSH1 0 PUSH1 0 REVERT");
  EXPECT_EQ(r.status, ExecStatus::kRevert);
  EXPECT_TRUE(h.logs.empty());
}

// --- value transfer to empty code ---

TEST(EvmTransfer, PlainTransferSucceeds) {
  Harness h;
  Evm evm{h.db, h.block, h.tx};
  Message msg;
  msg.caller = kCaller;
  msg.to = addr(0x55);
  msg.value = U256{250};
  msg.gas = 21000;
  const ExecResult r = evm.execute(msg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(h.db.balance(addr(0x55)), U256{250});
  EXPECT_EQ(r.gas_left, 21000u);  // code-less call burns nothing here
}

}  // namespace
}  // namespace srbb::evm
