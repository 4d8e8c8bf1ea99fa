#include "src/common/types.h"

namespace spur {

const char*
ToString(Protection prot)
{
    switch (prot) {
      case Protection::kNone: return "none";
      case Protection::kReadOnly: return "ro";
      case Protection::kReadWrite: return "rw";
    }
    return "?";
}

}  // namespace spur
