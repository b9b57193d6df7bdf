#include "workflow/config.hpp"

#include <limits>
#include <map>
#include <stdexcept>

#include "common/strings.hpp"

namespace woha::wf {

namespace {

/// A job's task-count attribute, refused unless it fits the uint32 field.
std::uint32_t parse_task_count(const xml::Node& job, const char* attribute,
                               const char* fallback) {
  const std::string raw = job.attr_or(attribute, fallback);
  const std::int64_t count = parse_int(raw);
  if (count < 0 || count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("workflow config: job '" + job.attr("name") + "' has " +
                                attribute + "=\"" + raw + "\", outside [0, 4294967295]");
  }
  return static_cast<std::uint32_t>(count);
}

}  // namespace

WorkflowSpec load_workflow(const xml::Document& doc) {
  const xml::Node& root = doc.root();
  if (root.name() != "workflow") {
    throw std::invalid_argument("workflow config: root element must be <workflow>, got <" +
                                root.name() + ">");
  }
  WorkflowSpec spec;
  spec.name = root.attr_or("name", "unnamed-workflow");
  if (root.has_attr("deadline")) {
    spec.relative_deadline = parse_duration(root.attr("deadline"));
  }
  if (root.has_attr("submit")) {
    spec.submit_time = parse_duration(root.attr("submit"));
  }

  // First pass: create jobs and build the name -> index map.
  std::map<std::string, std::uint32_t> index_of;
  const auto job_nodes = root.children_named("job");
  if (job_nodes.empty()) {
    throw std::invalid_argument("workflow config: no <job> elements");
  }
  for (const xml::Node* jn : job_nodes) {
    JobSpec job;
    job.name = jn->attr("name");
    job.num_maps = parse_task_count(*jn, "maps", "1");
    job.num_reduces = parse_task_count(*jn, "reduces", "0");
    job.map_duration = parse_duration(jn->attr_or("map-duration", "60s"));
    job.reduce_duration = parse_duration(jn->attr_or("reduce-duration", "120s"));
    if (index_of.count(job.name)) {
      throw std::invalid_argument("workflow config: duplicate job name '" + job.name + "'");
    }
    index_of[job.name] = static_cast<std::uint32_t>(spec.jobs.size());
    spec.jobs.push_back(std::move(job));
  }

  // Second pass: resolve dependencies by name.
  for (std::size_t j = 0; j < job_nodes.size(); ++j) {
    for (const xml::Node* dep : job_nodes[j]->children_named("depends")) {
      const std::string& target = dep->attr("on");
      const auto it = index_of.find(target);
      if (it == index_of.end()) {
        throw std::invalid_argument("workflow config: job '" + spec.jobs[j].name +
                                    "' depends on unknown job '" + target + "'");
      }
      spec.jobs[j].prerequisites.push_back(it->second);
    }
  }

  validate(spec);
  return spec;
}

WorkflowSpec load_workflow_string(const std::string& text) {
  return load_workflow(xml::parse(text));
}

WorkflowSpec load_workflow_file(const std::string& path) {
  return load_workflow(xml::parse_file(path));
}

std::string save_workflow(const WorkflowSpec& spec) {
  auto root = std::make_unique<xml::Node>("workflow");
  root->set_attr("name", spec.name);
  if (spec.relative_deadline > 0) {
    root->set_attr("deadline", std::to_string(spec.relative_deadline) + "ms");
  }
  if (spec.submit_time > 0) {
    root->set_attr("submit", std::to_string(spec.submit_time) + "ms");
  }
  for (const JobSpec& job : spec.jobs) {
    xml::Node& jn = root->add_child("job");
    jn.set_attr("name", job.name);
    jn.set_attr("maps", std::to_string(job.num_maps));
    jn.set_attr("reduces", std::to_string(job.num_reduces));
    jn.set_attr("map-duration", std::to_string(job.map_duration) + "ms");
    jn.set_attr("reduce-duration", std::to_string(job.reduce_duration) + "ms");
    for (std::uint32_t p : job.prerequisites) {
      jn.add_child("depends").set_attr("on", spec.jobs[p].name);
    }
  }
  return xml::Document(std::move(root)).to_string();
}

}  // namespace woha::wf
