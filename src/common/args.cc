#include "src/common/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace spur {

Args::Args(int argc, char** argv)
{
    program_ = (argc > 0) ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            flags_[arg] = argv[++i];
        } else {
            flags_[arg] = "";
        }
    }
}

bool
Args::Has(const std::string& name) const
{
    return flags_.find(name) != flags_.end();
}

std::string
Args::GetString(const std::string& name, const std::string& fallback) const
{
    const auto it = flags_.find(name);
    return (it != flags_.end()) ? it->second : fallback;
}

int64_t
Args::GetInt(const std::string& name, int64_t fallback) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) {
        return fallback;
    }
    return std::strtoll(it->second.c_str(), nullptr, 0);
}

bool
MatchFlag(const std::string& arg, const std::string& name,
          std::string* value)
{
    if (arg.size() < name.size() + 2 || arg.compare(0, 2, "--") != 0 ||
        arg.compare(2, name.size(), name) != 0) {
        return false;
    }
    const size_t after = 2 + name.size();
    if (arg.size() == after) {
        value->clear();
        return true;
    }
    if (arg[after] != '=') {
        return false;
    }
    *value = arg.substr(after + 1);
    return true;
}

bool
IsFlagArg(const std::string& arg)
{
    return arg.size() > 1 && arg.rfind("--", 0) == 0;
}

bool
ParsePositiveDouble(const std::string& text, double* out)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(value > 0.0)) {
        return false;
    }
    *out = value;
    return true;
}

bool
ParseUnsigned(const std::string& text, uint64_t* out)
{
    if (text.empty() || text[0] == '-') {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        return false;
    }
    *out = value;
    return true;
}

std::string
FormatToolUsage(const std::string& tool, const std::string& overview,
                const std::vector<ToolCommand>& commands)
{
    std::string text = "usage: ";
    const std::string continuation(7, ' ');  // Aligns under "usage: ".
    for (size_t i = 0; i < commands.size(); ++i) {
        if (i > 0) {
            text += continuation;
        }
        text += tool;
        text += ' ';
        text += commands[i].synopsis;
        text += '\n';
    }
    if (!overview.empty()) {
        text += '\n';
        text += overview;
        text += '\n';
    }
    // Flag docs align on one column across the whole tool.
    size_t widest = 0;
    for (const ToolCommand& command : commands) {
        for (const ToolFlag& flag : command.flags) {
            widest = std::max(widest, flag.name.size());
        }
    }
    for (const ToolCommand& command : commands) {
        text += '\n';
        text += tool;
        text += ' ';
        text += command.synopsis;
        text += '\n';
        text += "  ";
        text += command.summary;
        text += '\n';
        for (const ToolFlag& flag : command.flags) {
            text += "    ";
            text += flag.name;
            text += std::string(widest - flag.name.size() + 2, ' ');
            text += flag.doc;
            text += '\n';
        }
    }
    return text;
}

}  // namespace spur
