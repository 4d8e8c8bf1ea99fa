#include "src/lint/cxx_scan.h"

#include <cctype>
#include <utility>

namespace spur::lint {

// ---------------------------------------------------------------------------
// Line utilities
// ---------------------------------------------------------------------------

std::vector<std::string>
SplitLines(const std::string& content)
{
    std::vector<std::string> lines;
    std::string current;
    for (const char c : content) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current.push_back(c);
        }
    }
    if (!current.empty()) {
        lines.push_back(std::move(current));
    }
    return lines;
}

std::vector<std::string>
StripComments(const std::vector<std::string>& lines)
{
    enum class State : uint8_t { kCode, kString, kChar, kBlockComment };
    State state = State::kCode;
    std::vector<std::string> out;
    out.reserve(lines.size());
    for (const std::string& line : lines) {
        std::string code;
        code.reserve(line.size());
        if (state != State::kBlockComment) {
            state = State::kCode;
        }
        for (size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            const char next = (i + 1 < line.size()) ? line[i + 1] : '\0';
            switch (state) {
                case State::kCode:
                    if (c == '/' && next == '/') {
                        i = line.size();  // Rest of the line is comment.
                    } else if (c == '/' && next == '*') {
                        state = State::kBlockComment;
                        ++i;
                    } else {
                        if (c == '"') {
                            state = State::kString;
                        } else if (c == '\'') {
                            state = State::kChar;
                        }
                        code.push_back(c);
                    }
                    break;
                case State::kString:
                case State::kChar:
                    code.push_back(c);
                    if (c == '\\' && next != '\0') {
                        code.push_back(next);
                        ++i;
                    } else if ((state == State::kString && c == '"') ||
                               (state == State::kChar && c == '\'')) {
                        state = State::kCode;
                    }
                    break;
                case State::kBlockComment:
                    if (c == '*' && next == '/') {
                        state = State::kCode;
                        ++i;
                    }
                    break;
            }
        }
        out.push_back(std::move(code));
    }
    return out;
}

bool
IsIdentChar(char c)
{
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool
HasToken(const std::string& text, const std::string& token)
{
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        if (pos == 0 || !IsIdentChar(text[pos - 1])) {
            return true;
        }
        ++pos;
    }
    return false;
}

bool
HasWord(const std::string& text, const std::string& word)
{
    size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
        const size_t after = pos + word.size();
        const bool right_ok =
            after >= text.size() || !IsIdentChar(text[after]);
        if (left_ok && right_ok) {
            return true;
        }
        ++pos;
    }
    return false;
}

std::vector<IncludeDirective>
ScanIncludes(const std::vector<std::string>& code)
{
    std::vector<IncludeDirective> includes;
    for (size_t li = 0; li < code.size(); ++li) {
        size_t pos = code[li].find("#include");
        if (pos == std::string::npos) {
            continue;
        }
        pos = code[li].find('"', pos);
        if (pos == std::string::npos) {
            continue;  // <system> include.
        }
        const size_t end = code[li].find('"', pos + 1);
        if (end == std::string::npos) {
            continue;
        }
        includes.push_back(
            {li + 1, code[li].substr(pos + 1, end - pos - 1)});
    }
    return includes;
}

}  // namespace spur::lint
