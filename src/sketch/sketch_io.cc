#include "sketch/sketch_io.h"

#include <cstdio>
#include <limits>
#include <vector>

#include "util/checksum_io.h"

namespace sans {
namespace {

/// For v2 files: checks the trailer against the bytes consumed so
/// far. No-op for v1 (no trailer to check).
Status VerifyVersionedTrailer(CrcFile* f, uint32_t version) {
  if (version < 2) return Status::OK();
  return f->VerifyTrailer("sketch file");
}

Status CheckHeader(CrcFile* f, uint32_t expected_magic, uint32_t* version,
                   uint32_t* k, uint32_t* m) {
  uint32_t magic = 0;
  SANS_RETURN_IF_ERROR(f->ReadScalar(&magic));
  if (magic != expected_magic) {
    return Status::Corruption("bad magic");
  }
  SANS_RETURN_IF_ERROR(f->ReadScalar(version));
  if (*version < kSketchIoMinVersion || *version > kSketchIoVersion) {
    return Status::Corruption("unsupported version");
  }
  SANS_RETURN_IF_ERROR(f->ReadScalar(k));
  SANS_RETURN_IF_ERROR(f->ReadScalar(m));
  if (*k == 0 || *k > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption("k out of range");
  }
  return Status::OK();
}

/// Bytes of `f` after the current position. Every length a header
/// declares is checked against it before anything is sized from it,
/// so a corrupt header fails as kCorruption instead of allocating.
Result<uint64_t> BytesLeft(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek in sketch file");
  }
  const long end = std::ftell(f);
  if (end < pos || std::fseek(f, pos, SEEK_SET) != 0) {
    return Status::IOError("cannot seek in sketch file");
  }
  return static_cast<uint64_t>(end - pos);
}

}  // namespace

Status WriteSignatureMatrix(const SignatureMatrix& signatures,
                            const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSignatureFileMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSketchIoVersion));
  SANS_RETURN_IF_ERROR(
      f.WriteScalar(static_cast<uint32_t>(signatures.num_hashes())));
  SANS_RETURN_IF_ERROR(f.WriteScalar(signatures.num_cols()));
  for (int l = 0; l < signatures.num_hashes(); ++l) {
    const auto row = signatures.HashRow(l);
    SANS_RETURN_IF_ERROR(f.Write(row.data(), row.size() * sizeof(uint64_t)));
  }
  return f.WriteTrailer();
}

Result<SignatureMatrix> ReadSignatureMatrix(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  CrcFile f{file.get()};
  uint32_t version = 0;
  uint32_t k = 0;
  uint32_t m = 0;
  SANS_RETURN_IF_ERROR(
      CheckHeader(&f, kSignatureFileMagic, &version, &k, &m));
  SANS_ASSIGN_OR_RETURN(const uint64_t left, BytesLeft(file.get()));
  // k and m are below 2^32, so k * m fits in 64 bits.
  if (static_cast<uint64_t>(k) * m > left / sizeof(uint64_t)) {
    return Status::Corruption("signature file shorter than its header");
  }
  SignatureMatrix signatures(static_cast<int>(k), m);
  std::vector<uint64_t> row(m);
  for (uint32_t l = 0; l < k; ++l) {
    SANS_RETURN_IF_ERROR(f.Read(row.data(), row.size() * sizeof(uint64_t)));
    for (ColumnId c = 0; c < m; ++c) {
      signatures.SetValue(static_cast<int>(l), c, row[c]);
    }
  }
  SANS_RETURN_IF_ERROR(VerifyVersionedTrailer(&f, version));
  return signatures;
}

Status WriteKMinHashSketch(const KMinHashSketch& sketch,
                           const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSketchFileMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSketchIoVersion));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(sketch.k())));
  SANS_RETURN_IF_ERROR(f.WriteScalar(sketch.num_cols()));
  for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
    SANS_RETURN_IF_ERROR(f.WriteScalar(sketch.ColumnCardinality(c)));
    const auto sig = sketch.Signature(c);
    SANS_RETURN_IF_ERROR(
        f.WriteScalar(static_cast<uint32_t>(sig.size())));
    SANS_RETURN_IF_ERROR(f.Write(sig.data(), sig.size() * sizeof(uint64_t)));
  }
  return f.WriteTrailer();
}

Result<KMinHashSketch> ReadKMinHashSketch(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  CrcFile f{file.get()};
  uint32_t version = 0;
  uint32_t k = 0;
  uint32_t m = 0;
  SANS_RETURN_IF_ERROR(CheckHeader(&f, kSketchFileMagic, &version, &k, &m));
  // Each column takes at least its cardinality and size fields.
  constexpr uint64_t kColumnHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t);
  SANS_ASSIGN_OR_RETURN(uint64_t left, BytesLeft(file.get()));
  if (m > left / kColumnHeaderBytes) {
    return Status::Corruption("sketch file shorter than its header");
  }
  KMinHashSketch sketch(static_cast<int>(k), m);
  for (ColumnId c = 0; c < m; ++c) {
    uint64_t cardinality = 0;
    uint32_t size = 0;
    SANS_RETURN_IF_ERROR(f.ReadScalar(&cardinality));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&size));
    if (size > k) {
      return Status::Corruption("signature larger than k");
    }
    left -= kColumnHeaderBytes;
    if (size > left / sizeof(uint64_t)) {
      return Status::Corruption("sketch file shorter than column " +
                                std::to_string(c));
    }
    left -= size * sizeof(uint64_t);
    std::vector<uint64_t> signature(size);
    SANS_RETURN_IF_ERROR(
        f.Read(signature.data(), signature.size() * sizeof(uint64_t)));
    SANS_RETURN_IF_ERROR(
        sketch.SetColumn(c, std::move(signature), cardinality));
  }
  SANS_RETURN_IF_ERROR(VerifyVersionedTrailer(&f, version));
  return sketch;
}

}  // namespace sans
