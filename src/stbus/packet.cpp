#include "stbus/packet.h"

#include <algorithm>
#include <stdexcept>

namespace crve::stbus {

int data_cells(Opcode opc, int bus_bytes) {
  const int size = size_bytes(opc);
  return size <= bus_bytes ? 1 : size / bus_bytes;
}

int request_cells(Opcode opc, int bus_bytes, ProtocolType type) {
  if (type == ProtocolType::kType1) return 1;
  if (is_atomic(opc)) return 1;
  if (is_store(opc)) return data_cells(opc, bus_bytes);
  // Loads: Type3 sends the address once; Type2 sends one beat per cell.
  return type == ProtocolType::kType3 ? 1 : data_cells(opc, bus_bytes);
}

int response_cells(Opcode opc, int bus_bytes, ProtocolType type) {
  if (type == ProtocolType::kType1) return 1;
  if (is_atomic(opc)) return 1;
  if (is_load(opc)) return data_cells(opc, bus_bytes);
  // Stores: Type3 acknowledges once; Type2 is symmetric.
  return type == ProtocolType::kType3 ? 1 : data_cells(opc, bus_bytes);
}

bool lanes_legal(Opcode opc, std::uint32_t add, int bus_bytes) {
  const int size = size_bytes(opc);
  if (size >= bus_bytes) return true;
  const int lane0 =
      static_cast<int>(add % static_cast<std::uint32_t>(bus_bytes));
  return lane0 + size <= bus_bytes;
}

Bits byte_enables(Opcode opc, std::uint32_t add, int bus_bytes, int cell) {
  const int size = size_bytes(opc);
  if (size >= bus_bytes) {
    return Bits::all_ones(bus_bytes);
  }
  // Sub-bus transfer: one cell, lanes chosen by the address offset.
  if (cell != 0) {
    throw std::invalid_argument("byte_enables: sub-bus op has a single cell");
  }
  if (!lanes_legal(opc, add, bus_bytes)) {
    throw std::invalid_argument("byte_enables: lanes straddle the bus word");
  }
  // bus_bytes <= 32, so the lane mask is one word.
  const int lane0 = static_cast<int>(add % static_cast<std::uint32_t>(bus_bytes));
  return Bits(bus_bytes, ((std::uint64_t{1} << size) - 1) << lane0);
}

std::uint32_t cell_address(std::uint32_t add, int bus_bytes, int cell) {
  return add + static_cast<std::uint32_t>(cell) *
                   static_cast<std::uint32_t>(bus_bytes);
}

bool aligned(Opcode opc, std::uint32_t add) {
  const auto size = static_cast<std::uint32_t>(size_bytes(opc));
  return (add & (size - 1)) == 0;
}

namespace {

// Data lanes of an operation: a sub-bus operation occupies `chunk` = size
// lanes from its address offset in its one cell; a wider one fills every
// lane of each cell, cell c carrying bytes [c * bus_bytes, (c + 1) *
// bus_bytes) of the data.
struct Lanes {
  int size;
  int lane0;
  int chunk;

  Lanes(Opcode opc, std::uint32_t add, int bus_bytes)
      : size(size_bytes(opc)),
        lane0(size < bus_bytes ? static_cast<int>(
                                     add % static_cast<std::uint32_t>(bus_bytes))
                               : 0),
        chunk(size < bus_bytes ? size : bus_bytes) {}

  // Data bytes cell `c` carries (0 past the data).
  std::size_t in_cell(int c, int bus_bytes) const {
    const int left = size - c * bus_bytes;
    return static_cast<std::size_t>(left <= 0 ? 0 : std::min(chunk, left));
  }
};

}  // namespace

void build_request(const Request& req, int bus_bytes, ProtocolType type,
                   std::vector<RequestCell>& cells) {
  const int size = size_bytes(req.opc);
  const bool carries_data = is_store(req.opc) || is_atomic(req.opc);
  if (carries_data && static_cast<int>(req.wdata.size()) != size) {
    throw std::invalid_argument("build_request: wdata size mismatch");
  }
  if (is_atomic(req.opc) && size > bus_bytes) {
    // Atomics are single-cell by definition and cannot straddle beats.
    throw std::invalid_argument("build_request: atomic wider than the bus");
  }
  const int n = request_cells(req.opc, bus_bytes, type);
  // A sub-bus operation has one cell, so every cell has the same enables.
  const Bits be = byte_enables(req.opc, req.add, bus_bytes, 0);
  const Lanes lanes(req.opc, req.add, bus_bytes);
  cells.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    RequestCell& cell = cells[static_cast<std::size_t>(c)];
    cell.opc = req.opc;
    cell.add = cell_address(req.add, bus_bytes, c);
    cell.be = be;
    cell.data = Bits(bus_bytes * 8);
    if (carries_data) {
      cell.data.set_bytes(
          lanes.lane0,
          std::span(req.wdata).subspan(
              static_cast<std::size_t>(c * bus_bytes),
              lanes.in_cell(c, bus_bytes)));
    }
    cell.eop = (c == n - 1);
    cell.lck = req.lck || !cell.eop;
    cell.src = req.src;
    cell.tid = req.tid;
  }
}

std::vector<RequestCell> build_request(const Request& req, int bus_bytes,
                                       ProtocolType type) {
  std::vector<RequestCell> cells;
  build_request(req, bus_bytes, type, cells);
  return cells;
}

void build_response(Opcode opc, std::uint32_t add,
                    std::span<const std::uint8_t> rdata, RspOpcode status,
                    int bus_bytes, ProtocolType type, std::uint8_t src,
                    std::uint8_t tid, std::vector<ResponseCell>& cells) {
  const int size = size_bytes(opc);
  const bool carries_data = is_load(opc) || is_atomic(opc);
  if (carries_data && static_cast<int>(rdata.size()) != size) {
    throw std::invalid_argument("build_response: rdata size mismatch");
  }
  if (is_atomic(opc) && size > bus_bytes) {
    throw std::invalid_argument("build_response: atomic wider than the bus");
  }
  const int n = response_cells(opc, bus_bytes, type);
  const Lanes lanes(opc, add, bus_bytes);
  cells.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    ResponseCell& cell = cells[static_cast<std::size_t>(c)];
    cell.opc = status;
    cell.data = Bits(bus_bytes * 8);
    if (carries_data) {
      cell.data.set_bytes(lanes.lane0,
                          rdata.subspan(static_cast<std::size_t>(c * bus_bytes),
                                        lanes.in_cell(c, bus_bytes)));
    }
    cell.eop = (c == n - 1);
    cell.src = src;
    cell.tid = tid;
  }
}

std::vector<ResponseCell> build_response(Opcode opc, std::uint32_t add,
                                         std::span<const std::uint8_t> rdata,
                                         RspOpcode status, int bus_bytes,
                                         ProtocolType type, std::uint8_t src,
                                         std::uint8_t tid) {
  std::vector<ResponseCell> cells;
  build_response(opc, add, rdata, status, bus_bytes, type, src, tid, cells);
  return cells;
}

void build_error_response(Opcode opc, int bus_bytes, ProtocolType type,
                          std::uint8_t src, std::uint8_t tid,
                          std::vector<ResponseCell>& cells) {
  const int n = response_cells(opc, bus_bytes, type);
  cells.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    ResponseCell& cell = cells[static_cast<std::size_t>(c)];
    cell.opc = RspOpcode::kError;
    cell.data = Bits(bus_bytes * 8);
    cell.eop = (c == n - 1);
    cell.src = src;
    cell.tid = tid;
  }
}

std::vector<ResponseCell> build_error_response(Opcode opc, int bus_bytes,
                                               ProtocolType type,
                                               std::uint8_t src,
                                               std::uint8_t tid) {
  std::vector<ResponseCell> cells;
  build_error_response(opc, bus_bytes, type, src, tid, cells);
  return cells;
}

namespace {

// Shared lane unpacking for request and response data payloads.
template <class Cell>
void extract_data(Opcode opc, std::uint32_t add, std::span<const Cell> cells,
                  int bus_bytes, std::span<std::uint8_t> out) {
  const Lanes lanes(opc, add, bus_bytes);
  if (static_cast<int>(out.size()) != lanes.size) {
    throw std::invalid_argument("extract data: buffer size mismatch");
  }
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const int beat = static_cast<int>(c);
    const std::size_t n = lanes.in_cell(beat, bus_bytes);
    if (n == 0) break;  // cells past the data carry none
    cells[c].data.get_bytes(
        lanes.lane0,
        out.subspan(static_cast<std::size_t>(beat * bus_bytes), n));
  }
}

}  // namespace

void extract_request_data(Opcode opc, std::uint32_t add,
                          std::span<const RequestCell> cells, int bus_bytes,
                          std::span<std::uint8_t> out) {
  extract_data(opc, add, cells, bus_bytes, out);
}

void extract_response_data(Opcode opc, std::uint32_t add,
                           std::span<const ResponseCell> cells, int bus_bytes,
                           std::span<std::uint8_t> out) {
  extract_data(opc, add, cells, bus_bytes, out);
}

std::vector<std::uint8_t> extract_request_data(
    Opcode opc, std::uint32_t add, std::span<const RequestCell> cells,
    int bus_bytes) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size_bytes(opc)));
  extract_request_data(opc, add, cells, bus_bytes, out);
  return out;
}

std::vector<std::uint8_t> extract_response_data(
    Opcode opc, std::uint32_t add, std::span<const ResponseCell> cells,
    int bus_bytes) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size_bytes(opc)));
  extract_response_data(opc, add, cells, bus_bytes, out);
  return out;
}

}  // namespace crve::stbus
