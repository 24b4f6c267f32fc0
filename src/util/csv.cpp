#include "util/csv.hpp"

#include "util/assert.hpp"

namespace hermes::util {

CsvWriter::CsvWriter(const std::string &path)
    : file_(path), toFile_(true)
{
    if (!file_)
        fatal("cannot open CSV output file: " + path);
}

CsvWriter::CsvWriter()
    : toFile_(false)
{}

CsvWriter::~CsvWriter()
{
    close();
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i)
            line += ',';
        line += escape(cells[i]);
    }
    emit(line);
}

void
CsvWriter::close()
{
    if (toFile_ && file_.is_open()) {
        file_.flush();
        file_.close();
    }
}

void
CsvWriter::emit(const std::string &line)
{
    if (toFile_)
        file_ << line << '\n';
    else
        buffer_ += line + "\n";
}

std::string
CsvWriter::escape(const std::string &cell)
{
    const bool needs_quote =
        cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quote)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace hermes::util
