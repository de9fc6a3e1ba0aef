#include "dw1000/frame.hpp"

namespace uwb::dw {

namespace {
constexpr int kHeaderBytes = 9;  // FC(2) seq(1) PAN(2) dst(2) src(2)
constexpr int kFcsBytes = 2;
}  // namespace

int MacFrame::payload_bytes() const {
  int size = kHeaderBytes + 1 + kFcsBytes;  // header + type + FCS
  if (type == FrameType::Resp) size += 1 + 5 + 5;  // id + two 40-bit stamps
  if (type == FrameType::Final) size += 5 + 5 + 5;  // three 40-bit stamps
  return size;
}

}  // namespace uwb::dw
