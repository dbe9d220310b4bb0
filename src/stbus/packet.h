// Cell-level request/response packet model.
//
// A transaction is one request packet plus one response packet, each a
// sequence of cells transferred one per granted cycle. The cell-splitting
// rules here are the single source of truth shared by the BFMs, the BCA
// node, the scoreboard and the protocol checkers, so that both DUT views
// and the environment agree on what a legal packet looks like.
//
// Packet shapes (DESIGN.md §4):
//   Type2 load  : N request cells (address beat per cell), N response cells.
//   Type2 store : N request cells (address+data), N response cells (status).
//   Type3 load  : 1 request cell, N response cells (asymmetric).
//   Type3 store : N request cells, 1 response cell.
//   RMW/SWAP    : 1 request cell with data, 1 response cell with old data.
// where N = max(1, size/bus_bytes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "stbus/config.h"
#include "stbus/opcode.h"

namespace crve::stbus {

struct RequestCell {
  Opcode opc = Opcode::kLd4;
  std::uint32_t add = 0;
  Bits data;  // bus-width; meaningful lanes flagged by `be`
  Bits be;    // bus_bytes wide, one bit per byte lane
  bool eop = false;
  bool lck = false;  // keep slave allocated past this packet (chunking)
  std::uint8_t src = 0;
  std::uint8_t tid = 0;
};

struct ResponseCell {
  RspOpcode opc = RspOpcode::kOk;
  Bits data;  // bus-width
  bool eop = false;
  std::uint8_t src = 0;
  std::uint8_t tid = 0;
};

// One logical operation as generated by an initiator BFM.
struct Request {
  Opcode opc = Opcode::kLd4;
  std::uint32_t add = 0;
  std::vector<std::uint8_t> wdata;  // size_bytes(opc) bytes for stores/atomics
  std::uint8_t src = 0;
  std::uint8_t tid = 0;
  bool lck = false;  // chunk: keep slave allocated after this packet
};

// Number of data beats the operation needs on a bus of `bus_bytes`.
int data_cells(Opcode opc, int bus_bytes);

// Number of request/response cells under the given protocol type.
int request_cells(Opcode opc, int bus_bytes, ProtocolType type);
int response_cells(Opcode opc, int bus_bytes, ProtocolType type);

// True when the (opcode, address) pair selects lanes that fit the bus:
// naturally aligned sub-bus operations never straddle a bus word. Illegal
// combinations can only come from a corrupted DUT; the environment must
// flag them rather than crash on them.
bool lanes_legal(Opcode opc, std::uint32_t add, int bus_bytes);

// Byte-enable mask for beat `cell` of the operation (bus_bytes wide).
// For sub-bus sizes the active lanes follow the address alignment.
// Throws std::invalid_argument when !lanes_legal().
Bits byte_enables(Opcode opc, std::uint32_t add, int bus_bytes, int cell);

// The largest operation, in bytes: a packet's data fits in a fixed array.
inline constexpr int kMaxOpBytes = 64;

// Address of beat `cell` (increments by bus_bytes for multi-cell packets).
std::uint32_t cell_address(std::uint32_t add, int bus_bytes, int cell);

// Validates that an address is naturally aligned for the opcode size (the
// STBus requirement the protocol checkers enforce).
bool aligned(Opcode opc, std::uint32_t add);

// The packet builders fill a caller's buffer, resized to the packet's cell
// count, so a caller that keeps the buffer builds every packet without
// allocating once it has held its longest one. The returning forms wrap
// them.

// Expands a Request into the exact cells an initiator must drive.
void build_request(const Request& req, int bus_bytes, ProtocolType type,
                   std::vector<RequestCell>& cells);
std::vector<RequestCell> build_request(const Request& req, int bus_bytes,
                                       ProtocolType type);

// Builds the response packet for an operation. For loads/atomics `rdata`
// holds size_bytes(opc) bytes of read data; for plain stores it is empty.
// A non-OK status is replicated on every cell.
void build_response(Opcode opc, std::uint32_t add,
                    std::span<const std::uint8_t> rdata, RspOpcode status,
                    int bus_bytes, ProtocolType type, std::uint8_t src,
                    std::uint8_t tid, std::vector<ResponseCell>& cells);
std::vector<ResponseCell> build_response(Opcode opc, std::uint32_t add,
                                         std::span<const std::uint8_t> rdata,
                                         RspOpcode status, int bus_bytes,
                                         ProtocolType type, std::uint8_t src,
                                         std::uint8_t tid);

// Status-only response packet (all cells ERROR, zero data). Safe for any
// opcode/address combination — used for decode errors and illegal packets.
void build_error_response(Opcode opc, int bus_bytes, ProtocolType type,
                          std::uint8_t src, std::uint8_t tid,
                          std::vector<ResponseCell>& cells);
std::vector<ResponseCell> build_error_response(Opcode opc, int bus_bytes,
                                               ProtocolType type,
                                               std::uint8_t src,
                                               std::uint8_t tid);

// Recovers the size_bytes(opc) data bytes carried by a request packet
// (stores/atomics) or a response packet (loads/atomics) into `out`, which
// holds exactly size_bytes(opc) bytes; lanes no cell carries read zero.
void extract_request_data(Opcode opc, std::uint32_t add,
                          std::span<const RequestCell> cells, int bus_bytes,
                          std::span<std::uint8_t> out);
void extract_response_data(Opcode opc, std::uint32_t add,
                           std::span<const ResponseCell> cells, int bus_bytes,
                           std::span<std::uint8_t> out);
std::vector<std::uint8_t> extract_request_data(
    Opcode opc, std::uint32_t add, std::span<const RequestCell> cells,
    int bus_bytes);
std::vector<std::uint8_t> extract_response_data(
    Opcode opc, std::uint32_t add, std::span<const ResponseCell> cells,
    int bus_bytes);

}  // namespace crve::stbus
