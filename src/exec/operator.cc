#include "exec/operator.h"

namespace ovc {

uint64_t DrainAndCount(Operator* op) {
  op->Open();
  RowBlock block(op->schema().total_columns());
  uint64_t rows = 0;
  uint32_t n;
  while ((n = op->NextBatch(&block)) > 0) {
    rows += n;
  }
  op->Close();
  return rows;
}

}  // namespace ovc
