// The System-level checkpoint envelope: name validation and container file
// I/O around the kernel-level chunk (SimKernel::save_state). The RunResult /
// ErrorEvent wire layout lives in engine/result_ckpt.cpp; per-system
// payloads live next to the system they serialise (save_policy_state).
#include "ckpt/serializer.hpp"
#include "core/system.hpp"

namespace unsync::core {

void System::save_checkpoint(ckpt::Serializer& s) const {
  s.begin_chunk("SYS0");
  s.str(name());
  save_state(s);
  s.end_chunk();
}

void System::load_checkpoint(ckpt::Deserializer& d) {
  d.begin_chunk("SYS0");
  const std::string saved = d.str();
  if (saved != name()) {
    throw ckpt::CkptError("checkpoint is for system '" + saved +
                          "', cannot restore into '" + name() + "'");
  }
  load_state(d);
  d.end_chunk();
}

void System::save_checkpoint_file(const std::string& path) const {
  ckpt::Serializer s;
  save_checkpoint(s);
  ckpt::write_file(path, s.data());
}

void System::load_checkpoint_file(const std::string& path) {
  ckpt::Deserializer d(ckpt::read_file(path));
  load_checkpoint(d);
  if (!d.at_end()) {
    throw ckpt::CkptError("trailing bytes after system checkpoint");
  }
}

std::string System::save_checkpoint_bytes() const {
  ckpt::Serializer s;
  save_checkpoint(s);
  return ckpt::wrap_container(s.data());
}

void System::load_checkpoint_bytes(std::string_view blob) {
  ckpt::Deserializer d(ckpt::unwrap_container(blob));
  load_checkpoint(d);
  if (!d.at_end()) {
    throw ckpt::CkptError("trailing bytes after system checkpoint");
  }
}

std::uint64_t System::state_fingerprint() const {
  ckpt::Serializer s;
  fingerprinting_ = true;
  try {
    save_policy_state(s);
  } catch (...) {
    fingerprinting_ = false;
    throw;
  }
  fingerprinting_ = false;
  return ckpt::fingerprint64(s.data());
}

}  // namespace unsync::core
